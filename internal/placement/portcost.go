package placement

import (
	"fmt"
	"math"

	"repro/internal/rtm"
	"repro/internal/trace"
)

// PortModel is the multi-port generalization of the paper's |x−y| cost
// model: a fixed access-port layout under which the cost of an access is
// the number of shifts to align its location with the *nearest* port,
// from wherever the previous access of the same DBC left the track.
//
// The model replicates rtm.ShiftEngine's controller arithmetic exactly —
// nearest port by shift distance, lowest-index port on ties, first
// access per DBC free with the track pre-aligned to its cheapest port —
// so evaluating a placement through a PortModel is bit-identical to
// replaying it through one shift engine per DBC (EngineCost stays the
// test oracle; see TestPortCostMatchesEngine and FuzzPortCostParity),
// without allocating engines or lookups per call.
//
// Unlike the single-port model, multi-port cost is *stateful*: the cost
// of a transition depends on which port served the previous access,
// which depends on the whole restricted history of the DBC. There is
// therefore no placement-independent transition summary in the style of
// CostKernel — exact evaluation replays each DBC's restricted
// subsequence (PortCost, O(accesses) with reusable scratch), and local
// search re-replays the affected DBC per candidate move
// (PortDeltaEvaluator). With one port at position 0 the model
// degenerates to the paper's: cost(y→x) = |x−y|, bit-identical to
// ShiftCost and CostKernel (TestPortCostSinglePortIdentity).
//
// The port layout derives from one deterministic device rule shared
// with the simulator: rtm.PortPositions(domains, ports), where domains
// is the *geometry's* track length — never the occupancy of a
// particular placement, which would move the physical ports with the
// data (the pre-fix ports-sweep drift). A PortModel is immutable and
// safe for concurrent use.
type PortModel struct {
	domains int
	ports   int
	pos     []int
}

// NewPortModel builds the cost model for a track of the given length
// with the canonical evenly-spread port layout. ports must be in
// [1, domains].
func NewPortModel(domains, ports int) (*PortModel, error) {
	pos, err := rtm.PortPositions(domains, ports)
	if err != nil {
		return nil, err
	}
	return &PortModel{domains: domains, ports: ports, pos: pos}, nil
}

// Domains returns the track length the port layout derives from.
func (m *PortModel) Domains() int { return m.domains }

// Ports returns the number of access ports per track.
func (m *PortModel) Ports() int { return m.ports }

// Positions returns a copy of the port positions.
func (m *PortModel) Positions() []int { return append([]int(nil), m.pos...) }

// SinglePort reports whether the model degenerates to the paper's
// single-port |x−y| arithmetic.
func (m *PortModel) SinglePort() bool { return m.ports == 1 }

// step serves one warm access to location x from shift offset off: it
// returns the shift cost to the nearest port and the new offset. The
// selection loop is rtm.ShiftEngine.Access's, including the
// lowest-index tie-break.
//
//rtm:hotpath
func (m *PortModel) step(off, x int) (cost, newOff int) {
	bestCost := -1
	bestOff := 0
	for _, p := range m.pos {
		need := x - p
		d := need - off
		if d < 0 {
			d = -d
		}
		if bestCost < 0 || d < bestCost {
			bestCost = d
			bestOff = need
		}
	}
	return bestCost, bestOff
}

// portCold marks a DBC whose track has not been accessed yet (the first
// access is free, with the track pre-aligned to the cheapest port).
const portCold = int(^uint(0) >> 1) // MaxInt: never a reachable offset

// PortCost replays the access sequence against the placement under the
// multi-port model and returns the exact total shift count — what
// EngineCost computes by allocating one rtm.ShiftEngine per DBC, here
// with pooled scratch only. The hot inner loop (portCostLookupBounded) is
// allocation-free; callers pricing many placements of one sequence
// should build the Lookup once and call it directly.
func PortCost(s *trace.Sequence, p *Placement, m *PortModel) (int64, error) {
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return 0, err
	}
	sc := scratchPool.Get().(*scratch)
	c := portCostLookupBounded(s, l, m, sc.grow(numDBCsIn(l)), math.MaxInt64)
	scratchPool.Put(sc)
	return c, nil
}

// portCostLookupBounded is the allocation-free inner loop of the
// multi-port replay path, with an abort threshold: the running total only
// grows, so once it reaches bound the final cost provably does too and
// the replay stops. Exact below bound (math.MaxInt64 prices in full); at
// or above bound the value is only a certificate that cost >= bound.
// Best-of-N searches (the multi-port random walk) use it to discard
// losing placements early. The lookup must cover every accessed
// variable; off must have one entry per DBC of the lookup (callers thread
// a reusable buffer through).
//
//rtm:hotpath
func portCostLookupBounded(s *trace.Sequence, l *Lookup, m *PortModel, off []int, bound int64) int64 {
	for i := range off {
		off[i] = portCold
	}
	var total int64
	for _, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		x := l.Offset[a.Var]
		if o := off[d]; o != portCold {
			c, no := m.step(o, x)
			total += int64(c)
			off[d] = no
			if total >= bound {
				return total
			}
		} else {
			_, off[d] = m.step(0, x)
		}
	}
	return total
}

// PortCostBreakdown is PortCost with per-DBC attribution and coverage
// validation — the multi-port equivalent of ShiftCostBreakdown, used by
// the session API to attribute strategy costs when the Lab's device has
// more than one port.
func PortCostBreakdown(s *trace.Sequence, p *Placement, m *PortModel) (*CostBreakdown, error) {
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return nil, err
	}
	q := len(p.DBC)
	b := &CostBreakdown{PerDBC: make([]int64, q), Accesses: make([]int64, q)}
	off := make([]int, q)
	for i := range off {
		off[i] = portCold
	}
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if d < 0 || d >= q {
			return nil, fmt.Errorf("placement: access %d to unplaced variable %s", i, s.Name(a.Var))
		}
		x := l.Offset[a.Var]
		if o := off[d]; o != portCold {
			c, no := m.step(o, x)
			b.PerDBC[d] += int64(c)
			b.Total += int64(c)
			off[d] = no
		} else {
			_, off[d] = m.step(0, x)
		}
		b.Accesses[d]++
	}
	return b, nil
}

// PortDeltaEvaluator is the multi-port counterpart of DeltaEvaluator:
// an intra-DBC move evaluator for local search over offset orders under
// the true multi-port objective.
//
// Multi-port cost is stateful (the realized port of one access feeds
// the next), so — unlike the single-port case — a move's cost change
// cannot be localized to the transitions adjacent to the moved
// variables: changing one port decision can ripple through the rest of
// the restricted subsequence. The evaluator therefore precomputes the
// DBC's restricted access stream once (consecutive repeats collapsed —
// a repeated access costs zero and leaves the track state unchanged
// under any port layout) and prices each candidate move by replaying
// that compressed stream, O(t) per move for t restricted transitions,
// touching neither the full sequence nor any allocation. That is the
// cheapest exact evaluation the model admits; with one port, use
// DeltaEvaluator's O(freq) deltas instead.
//
// The move surface (SwapDelta/Swap, ReverseDelta/Reverse, ImprovePass
// with the same swap-first first-improvement sweep) mirrors
// DeltaEvaluator, so TwoOpt-style searches run unchanged on either.
// Not safe for concurrent use; search loops own one instance each.
type PortDeltaEvaluator struct {
	model  *PortModel
	order  []int // current offset order; order[i] lives at offset i
	pos    []int // pos[v] = offset of v, -1 for non-members
	stream []int32

	cost     int64
	accesses int
}

// NewPortDeltaEvaluator builds an evaluator for the accesses of s
// restricted to the variables of order (the DBC's content, in offset
// order) under the port model. Setup is O(numVars + accesses); every
// move evaluation replays only the compressed restricted stream.
func NewPortDeltaEvaluator(s *trace.Sequence, order []int, m *PortModel) *PortDeltaEvaluator {
	width := s.NumVars()
	for _, v := range order {
		if v+1 > width {
			width = v + 1
		}
	}
	e := &PortDeltaEvaluator{
		model: m,
		order: append([]int(nil), order...),
		pos:   make([]int, width),
	}
	for v := range e.pos {
		e.pos[v] = -1
	}
	for i, v := range e.order {
		e.pos[v] = i
	}
	numVars := s.NumVars()
	prev := int32(-1)
	for _, a := range s.Accesses {
		v := a.Var
		if v < 0 || v >= numVars || e.pos[v] < 0 {
			continue
		}
		e.accesses++
		if int32(v) != prev {
			e.stream = append(e.stream, int32(v))
			prev = int32(v)
		}
	}
	e.cost = e.replay()
	return e
}

// replay prices the current pos assignment by driving the model through
// the compressed restricted stream — exactly one DBC's share of
// portCostLookup. Allocation-free.
//
//rtm:hotpath
func (e *PortDeltaEvaluator) replay() int64 {
	var total int64
	off := portCold
	for _, v := range e.stream {
		x := e.pos[v]
		if off != portCold {
			c, no := e.model.step(off, x)
			total += int64(c)
			off = no
		} else {
			_, off = e.model.step(0, x)
		}
	}
	return total
}

// Cost returns the current intra-DBC shift cost of the order under the
// port model.
func (e *PortDeltaEvaluator) Cost() int64 { return e.cost }

// Accesses returns the number of accesses to member variables.
func (e *PortDeltaEvaluator) Accesses() int { return e.accesses }

// Len returns the number of variables in the order.
func (e *PortDeltaEvaluator) Len() int { return len(e.order) }

// CurrentOrder returns a copy of the current offset order.
func (e *PortDeltaEvaluator) CurrentOrder() []int {
	return append([]int(nil), e.order...)
}

// SwapDelta returns the cost change of exchanging the variables at
// offsets i and j, without applying it.
//
//rtm:hotpath
func (e *PortDeltaEvaluator) SwapDelta(i, j int) int64 {
	if i == j {
		return 0
	}
	u, v := e.order[i], e.order[j]
	e.pos[u], e.pos[v] = j, i
	after := e.replay()
	e.pos[u], e.pos[v] = i, j
	return after - e.cost
}

// Swap applies the swap of offsets i and j, updating the cost.
//
//rtm:hotpath
func (e *PortDeltaEvaluator) Swap(i, j int) {
	e.cost += e.SwapDelta(i, j)
	u, v := e.order[i], e.order[j]
	e.order[i], e.order[j] = v, u
	e.pos[u], e.pos[v] = j, i
}

// ReverseDelta returns the cost change of reversing the offset segment
// [i, j], without applying it.
//
//rtm:hotpath
func (e *PortDeltaEvaluator) ReverseDelta(i, j int) int64 {
	if i >= j {
		return 0
	}
	m := i + j // reversal maps interior offset p to m - p
	for p := i; p <= j; p++ {
		e.pos[e.order[p]] = m - p
	}
	after := e.replay()
	for p := i; p <= j; p++ {
		e.pos[e.order[p]] = p
	}
	return after - e.cost
}

// Reverse applies the reversal of segment [i, j], updating the cost.
//
//rtm:hotpath
func (e *PortDeltaEvaluator) Reverse(i, j int) {
	e.cost += e.ReverseDelta(i, j)
	for l, r := i, j; l < r; l, r = l+1, r-1 {
		e.order[l], e.order[r] = e.order[r], e.order[l]
	}
	for p := i; p <= j; p++ {
		e.pos[e.order[p]] = p
	}
}

// ImprovePass runs one first-improvement sweep over all offset pairs
// (i, j), i < j, trying a swap first and, only if the swap does not
// improve, the 2-opt segment reversal — the same move order and
// acceptance rule as DeltaEvaluator.ImprovePass, so the port-aware
// polish is the drop-in counterpart of the single-port one. It reports
// whether any move was accepted.
//
//rtm:hotpath
func (e *PortDeltaEvaluator) ImprovePass() bool {
	improved := false
	n := len(e.order)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if e.SwapDelta(i, j) < 0 {
				e.Swap(i, j)
				improved = true
				continue
			}
			if e.ReverseDelta(i, j) < 0 {
				e.Reverse(i, j)
				improved = true
			}
		}
	}
	return improved
}
