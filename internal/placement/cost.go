package placement

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rtm"
	"repro/internal/trace"
)

// ShiftCost replays the access sequence against the placement and returns
// the total number of shift operations under the paper's cost model: per
// DBC, each access costs the absolute offset distance from the previously
// accessed variable in that DBC; the first access of each DBC is free.
//
// The replay is the repository's cost *oracle*: every other evaluator —
// the O(nnz) CostKernel full evaluation and the O(freq) DeltaEvaluator
// move evaluation — is pinned bit-identical to it (see DESIGN.md §8).
// Hot paths that evaluate many placements of one sequence should build a
// CostKernel instead; ShiftCost replays the stream at O(accesses) and is
// equivalent to driving one rtm.ShiftEngine per DBC with one port per
// track (see TestCostMatchesEngine).
func ShiftCost(s *trace.Sequence, p *Placement) (int64, error) {
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return 0, err
	}
	sc := scratchPool.Get().(*scratch)
	c := shiftCostLookupBounded(s, l, sc.grow(numDBCsIn(l)), math.MaxInt64)
	scratchPool.Put(sc)
	return c, nil
}

// scratch is the reusable per-DBC state buffer of the replay loops (the
// last offset of the single-port replay, the track offset of the
// multi-port one), pooled so repeated one-off pricing stops allocating
// per call.
type scratch struct{ buf []int }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns the scratch resized to q entries, reusing the backing
// array when it is large enough. The replay loops reset the contents.
func (sc *scratch) grow(q int) []int {
	if cap(sc.buf) < q {
		sc.buf = make([]int, q)
	}
	sc.buf = sc.buf[:q]
	return sc.buf
}

// shiftCostLookupBounded is the allocation-free inner loop of the replay
// path, with an abort threshold: the running total only grows, so once it
// reaches bound the final cost provably does too and the replay stops.
// Exact below bound (math.MaxInt64 prices in full); at or above bound the
// value is only a certificate that cost >= bound. Best-of-N searches use
// it to discard losing placements early. The lookup must cover every
// accessed variable; last must have one entry per DBC of the lookup
// (callers thread a reusable buffer through). last[d] is the offset of
// the previously accessed variable in DBC d, or -1 while it is cold.
func shiftCostLookupBounded(s *trace.Sequence, l *Lookup, last []int, bound int64) int64 {
	for i := range last {
		last[i] = -1
	}
	var total int64
	for _, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		off := l.Offset[a.Var]
		if prev := last[d]; prev >= 0 {
			if off > prev {
				total += int64(off - prev)
			} else {
				total += int64(prev - off)
			}
			if total >= bound {
				return total
			}
		}
		last[d] = off
	}
	return total
}

// shiftCostPerDBC is the replay loop with per-DBC attribution: one
// O(accesses) pass prices every DBC of the placement at once (the GA's
// DBC cost cache uses it to fill all missing entries together when a
// placement shares little with previously priced ones). per must hold
// one entry per DBC; it is zeroed here.
func shiftCostPerDBC(s *trace.Sequence, l *Lookup, last []int, per []int64) {
	for i := range last {
		last[i] = -1
		per[i] = 0
	}
	for _, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		off := l.Offset[a.Var]
		if prev := last[d]; prev >= 0 {
			if off > prev {
				per[d] += int64(off - prev)
			} else {
				per[d] += int64(prev - off)
			}
		}
		last[d] = off
	}
}

func numDBCsIn(l *Lookup) int {
	max := 0
	for _, d := range l.DBCOf {
		if d+1 > max {
			max = d + 1
		}
	}
	return max
}

// CostBreakdown reports the per-DBC shift totals and access counts,
// mirroring the S0/S1 decomposition in Fig. 3 of the paper.
type CostBreakdown struct {
	PerDBC   []int64
	Accesses []int64
	Total    int64
}

// ShiftCostBreakdown is ShiftCost with per-DBC attribution.
func ShiftCostBreakdown(s *trace.Sequence, p *Placement) (*CostBreakdown, error) {
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return nil, err
	}
	q := len(p.DBC)
	b := &CostBreakdown{PerDBC: make([]int64, q), Accesses: make([]int64, q)}
	last := make([]int, q)
	for i := range last {
		last[i] = -1
	}
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if d < 0 || d >= q {
			return nil, fmt.Errorf("placement: access %d to unplaced variable %s", i, s.Name(a.Var))
		}
		off := l.Offset[a.Var]
		if prev := last[d]; prev >= 0 {
			delta := off - prev
			if delta < 0 {
				delta = -delta
			}
			b.PerDBC[d] += int64(delta)
			b.Total += int64(delta)
		}
		last[d] = off
		b.Accesses[d]++
	}
	return b, nil
}

// EngineCost replays the sequence through rtm shift engines, one per DBC,
// supporting multi-port geometries. domainsPerDBC must be at least the
// fullest DBC of the placement; ports is the number of access ports per
// track, spread by the canonical rtm.PortPositions rule over
// domainsPerDBC domains. With ports == 1 this matches ShiftCost exactly.
//
// EngineCost (and EngineCostAt, its explicit-layout form) is the
// repository's multi-port cost *oracle*: the allocation-free PortModel
// evaluators in portcost.go are pinned bit-identical to it
// (FuzzPortCostParity). Hot paths use those; this replay exists to be
// trivially correct by construction.
func EngineCost(s *trace.Sequence, p *Placement, domainsPerDBC, ports int) (int64, error) {
	pos, err := rtm.PortPositions(domainsPerDBC, ports)
	if err != nil {
		return 0, err
	}
	return EngineCostAt(s, p, domainsPerDBC, pos)
}

// EngineCostAt is EngineCost with an explicit port layout, for devices
// whose track length grew past the geometry the ports were fabricated
// for (the layout then derives from the geometry's length, not the
// grown one — see rtm.NewShiftEngineAt and sim.RunSequence).
func EngineCostAt(s *trace.Sequence, p *Placement, domainsPerDBC int, portPos []int) (int64, error) {
	if n := p.MaxDBCLen(); domainsPerDBC < n {
		return 0, fmt.Errorf("placement: DBC holds %d variables but device has %d domains", n, domainsPerDBC)
	}
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return 0, err
	}
	engines := make([]*rtm.ShiftEngine, len(p.DBC))
	for i := range engines {
		e, err := rtm.NewShiftEngineAt(domainsPerDBC, portPos)
		if err != nil {
			return 0, err
		}
		engines[i] = e
	}
	var total int64
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if d < 0 {
			return 0, fmt.Errorf("placement: access %d to unplaced variable %s", i, s.Name(a.Var))
		}
		c, err := engines[d].Access(l.Offset[a.Var])
		if err != nil {
			return 0, err
		}
		total += int64(c)
	}
	return total, nil
}
