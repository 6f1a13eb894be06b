package placement

import (
	"repro/internal/trace"
)

// PlaceDMATwoOpt is the two-opt-refined DMA strategy: the paper's DMA
// inter-DBC heuristic with a ShiftsReduce intra ordering on the
// non-disjoint DBCs, polished by the TwoOpt local search (see twoopt.go).
// Since the delta-evaluator rewrite the polish pass prices each candidate
// move in O(freq) instead of replaying the DBC's restricted subsequence,
// so the strategy stays affordable on long traces (BenchmarkTwoOptDelta);
// with a batch-shared cost kernel at hand the per-DBC evaluator setup is
// derived from it in O(nnz) too, so nothing on this path replays the
// stream. TwoOpt can only keep or improve the intra cost, so this
// strategy is never worse than DMA-SR on the cost model. It is not one of
// the paper's six evaluated strategies; the racetrack package registers
// it as "DMA-2opt" through the public RegisterStrategy hook to
// demonstrate registry extensibility.
func PlaceDMATwoOpt(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	a := trace.Analyze(s)
	r, err := DMA(a, q, opts.Capacity)
	if err != nil {
		return nil, 0, err
	}
	ev, err := opts.Evaluator(s, q)
	if err != nil {
		return nil, 0, err
	}
	// Under a multi-port objective the single-port polish still runs
	// first (it is the cheap surrogate), then a port-aware 2-opt sweep
	// polishes under the true objective (Evaluator.Improve), so the
	// multi-port DMA-2opt placement never scores worse on the device
	// than the single-port one replayed on it — the monotonicity the
	// ports-sweep experiment asserts.
	refined := func(vars []int, s *trace.Sequence, a *trace.Analysis) []int {
		return ev.Improve(ShiftsReduce(vars, s, a))
	}
	p := ApplyIntra(r.Placement, r.DisjointDBCs, q, refined, s, a)
	c, err := ev.Cost(p)
	return p, c, err
}
