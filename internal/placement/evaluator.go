package placement

import (
	"math"
	"sync"

	"repro/internal/trace"
)

// Evaluator is the cost path of one placement call: the single decision
// of *how* placements of one sequence are priced, made once instead of at
// every call site. The device model reaches the search as exactly this
// choice (DESIGN.md §8, §10):
//
//   - a multi-port PortModel prices with the exact nearest-port replay
//     (portcost.go), and local search polishes with PortDeltaEvaluator;
//   - otherwise the paper's single-port |x−y| model prices through the
//     stencil CostKernel when one is at hand for this exact sequence,
//     and through the replay oracle (cost.go) when not.
//
// Every path is bit-identical to the oracles (ShiftCostBreakdown,
// EngineCost); the choice changes speed, never a cost or a search
// trajectory. The searches take their per-goroutine pricing state from
// the evaluator too: the GA's fitness (the content-addressed DBC cost
// cache, or the multi-port track-state buffer) and the random walk's
// bounded pricer, including its kernel-compression rule.
//
// An Evaluator is safe for concurrent use: island and portfolio workers
// share one, and the lazy kernel build is serialized.
type Evaluator struct {
	s    *trace.Sequence
	port *PortModel // nil: the single-port model

	mu   sync.Mutex
	kern *CostKernel // the single-port kernel of s: supplied, or built by kernel
}

// NewEvaluator fixes the cost path for placements of s. kern is an
// optional pre-built kernel; one built from a different sequence
// (pointer identity) is ignored, never mis-applied. port selects the
// multi-port model; nil, or a one-port model, is the paper's single-port
// model.
func NewEvaluator(s *trace.Sequence, kern *CostKernel, port *PortModel) *Evaluator {
	if kern != nil && kern.Sequence() != s {
		kern = nil
	}
	if port != nil && port.SinglePort() {
		port = nil // one port prices |x−y| exactly; the fast paths apply
	}
	return &Evaluator{s: s, port: port, kern: kern}
}

// Evaluator resolves the options' cost path for s placed into q DBCs:
// Options.Kernel when it was built from s, and the multi-port model of
// PortModelFor(q).
func (o Options) Evaluator(s *trace.Sequence, q int) (*Evaluator, error) {
	pm, err := o.PortModelFor(q)
	if err != nil {
		return nil, err
	}
	return NewEvaluator(s, o.Kernel, pm), nil
}

// kernel returns the sequence's single-port cost kernel, building it on
// first use when none was supplied. Searches that price thousands of
// placements call it once up front; the race hands it to every strategy.
func (e *Evaluator) kernel() *CostKernel {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.kern == nil {
		e.kern = NewCostKernel(e.s)
	}
	return e.kern
}

// knownKernel returns the kernel if one was supplied or already built,
// without building one.
func (e *Evaluator) knownKernel() *CostKernel {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.kern
}

// Cost returns the placement's exact shift cost.
func (e *Evaluator) Cost(p *Placement) (int64, error) { return e.CostBounded(p, math.MaxInt64) }

// CostBounded is Cost with an abort threshold: exact below bound, and at
// or above it only a certificate that the cost is >= bound.
func (e *Evaluator) CostBounded(p *Placement, bound int64) (int64, error) {
	l, err := p.BuildLookup(e.s.NumVars())
	if err != nil {
		return 0, err
	}
	sc := scratchPool.Get().(*scratch)
	c := e.costBounded(l, e.knownKernel(), sc.grow(len(p.DBC)), bound)
	scratchPool.Put(sc)
	return c, nil
}

// costBounded prices a lookup with an abort threshold: the multi-port
// replay, else kern when it is non-nil, else the single-port replay.
// buf holds one entry per DBC.
//
//rtm:hotpath
func (e *Evaluator) costBounded(l *Lookup, kern *CostKernel, buf []int, bound int64) int64 {
	switch {
	case e.port != nil:
		return portCostLookupBounded(e.s, l, e.port, buf, bound)
	case kern != nil:
		return kern.CostBounded(l, bound)
	default:
		return shiftCostLookupBounded(e.s, l, buf, bound)
	}
}

// Breakdown attributes the placement's cost and accesses per DBC. It
// validates coverage: an access to an unplaced variable is an error.
func (e *Evaluator) Breakdown(p *Placement) (*CostBreakdown, error) {
	if e.port != nil {
		return PortCostBreakdown(e.s, p, e.port)
	}
	if k := e.knownKernel(); k != nil {
		return k.Breakdown(p)
	}
	return ShiftCostBreakdown(e.s, p)
}

// Improve polishes one DBC's offset order with first-improvement 2-opt
// sweeps (TwoOpt's moves and pass bound) and returns the improved copy.
// The single-port sweep always runs, with its move evaluator derived from
// the kernel when one is known. Under a multi-port model a port-aware
// sweep then continues from that result. It accepts only improving moves,
// so the polished order never scores worse on the device than the
// single-port polish replayed on it.
func (e *Evaluator) Improve(order []int) []int {
	out := append([]int(nil), order...)
	if len(out) < 3 {
		return out
	}
	out = sweep(e.singlePortMoves(out), out, maxTwoOptPasses)
	if e.port != nil {
		out = sweep(NewPortDeltaEvaluator(e.s, out, e.port), out, maxTwoOptPasses)
	}
	return out
}

// improveStep runs one 2-opt sweep over order under the evaluator's own
// objective only, in place: the GA's memetic mutation.
func (e *Evaluator) improveStep(order []int) {
	var m moveEvaluator
	if e.port != nil {
		m = NewPortDeltaEvaluator(e.s, order, e.port)
	} else {
		m = e.singlePortMoves(order)
	}
	copy(order, sweep(m, order, 1))
}

// singlePortMoves builds the single-port move evaluator for one DBC's
// order, in O(nnz) from the kernel when one is known.
func (e *Evaluator) singlePortMoves(order []int) *DeltaEvaluator {
	if k := e.knownKernel(); k != nil {
		return NewDeltaEvaluatorFromKernel(k, order)
	}
	return NewDeltaEvaluator(e.s, order)
}

// moveEvaluator is the move surface DeltaEvaluator and
// PortDeltaEvaluator share.
type moveEvaluator interface {
	Accesses() int
	ImprovePass() bool
	CurrentOrder() []int
}

// sweep runs up to passes first-improvement passes of m, which was built
// over order, and returns the resulting order (order itself when the DBC
// sees fewer than two accesses and no move can change its cost).
func sweep(m moveEvaluator, order []int, passes int) []int {
	if m.Accesses() < 2 {
		return order
	}
	for pass := 0; pass < passes; pass++ {
		if !m.ImprovePass() {
			break
		}
	}
	return m.CurrentOrder()
}

// fitness is one goroutine's GA fitness state, alive for a whole run: a
// reusable lookup plus, under the single-port model, the content-
// addressed DBC cost cache over the kernel, or, under a multi-port
// model, the per-DBC track-state buffer of the exact replay.
type fitness struct {
	ev     *Evaluator
	lookup *Lookup
	cache  *dbcCostCache
	off    []int
}

// fitness returns fresh fitness state for placements into q DBCs. Under
// the single-port model it builds the kernel if none is known yet.
func (e *Evaluator) fitness(q int) *fitness {
	f := &fitness{ev: e, lookup: &Lookup{DBCOf: make([]int, e.s.NumVars()), Offset: make([]int, e.s.NumVars())}}
	if e.port != nil {
		f.off = make([]int, q)
	} else {
		f.cache = newDBCCostCache(e.kernel())
	}
	return f
}

// cost prices one placement.
//
//rtm:hotpath
func (f *fitness) cost(p *Placement) int64 {
	fillLookup(f.lookup, p)
	if f.cache == nil {
		return portCostLookupBounded(f.ev.s, f.lookup, f.ev.port, f.off, math.MaxInt64)
	}
	return f.cache.eval(f.lookup, p)
}

// walkPricer is the random walk's bounded pricer: random placements are
// adversarial for the stencil kernel (deep, branch-miss-bound scans), so
// the linear replay wins unless the trace is strongly loop-compressed.
// The kernel is used only when its candidate table is smaller than half
// the stream (DESIGN.md §8).
type walkPricer struct {
	ev   *Evaluator
	kern *CostKernel // nil: bounded replay
	buf  []int
}

// walkPricer returns a bounded pricer for placements into q DBCs. With
// no kernel known, the speculative build is budgeted at the compression
// threshold and abandoned as soon as the table provably exceeds it.
func (e *Evaluator) walkPricer(q int) *walkPricer {
	w := &walkPricer{ev: e, buf: make([]int, q)}
	if e.port != nil {
		return w // the kernel prices the single-port model only
	}
	k := e.knownKernel()
	if k == nil {
		k = buildCostKernel(e.s, e.s.Len()/2)
	}
	if k != nil && k.Candidates() < e.s.Len()/2 {
		w.kern = k
	}
	return w
}

// cost prices the placement described by l against bound (exact below
// it).
//
//rtm:hotpath
func (w *walkPricer) cost(l *Lookup, bound int64) int64 {
	return w.ev.costBounded(l, w.kern, w.buf, bound)
}
