package placement

import (
	"repro/internal/trace"
)

// maxTwoOptPasses bounds the number of improvement sweeps; local optima
// are normally reached in far fewer.
const maxTwoOptPasses = 24

// TwoOpt is an intra-DBC local-search improver in the spirit of the
// TSP view of offset assignment (Jünger & Mallach, the paper's ref [4]):
// starting from any ordering, repeatedly apply the first improving move of
// two move families until a local optimum is reached:
//
//   - swap: exchange the offsets of two variables;
//   - segment reversal: the classic 2-opt move, reversing a contiguous
//     offset range.
//
// The objective evaluated is the true intra-DBC shift cost of the
// DBC-restricted subsequence (not just the access-graph approximation),
// so a TwoOpt pass can only improve or keep the cost of whatever
// heuristic ran before it.
//
// Moves are evaluated incrementally through DeltaEvaluator (delta.go):
// after an O(m) setup per DBC, a candidate swap costs O(freq(u)+freq(v))
// and a candidate reversal touches only boundary-crossing transitions,
// instead of the seed's O(m) full recompute per candidate. The search
// trajectory is identical to the seed implementation move-for-move
// (TestTwoOptMatchesReference pins this against the reference kept in
// twoopt_reference_test.go). Intended as a polish pass after Chen or
// ShiftsReduce, and as the optional '+2opt' ablation in bench_test.go.
func TwoOpt(vars []int, s *trace.Sequence, a *trace.Analysis) []int {
	return NewEvaluator(s, nil, nil).Improve(vars)
}
