package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four equal
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4), so the spreads printed here match the
// ones an external checker computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	s := sorted(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// minSamples is the smallest sample count a p-th percentile is reported
// from: ten samples must lie beyond the cut, so p50 needs 20 and p99
// needs 1000. Below that the estimate is one or two outliers, not a
// percentile.
func minSamples(p float64) int {
	return int(math.Ceil(10/(1-p/100) - 1e-9))
}

// percentile is the nearest-rank p-th percentile of xs. It refuses
// sample sets too small to carry the percentile (see minSamples).
// Samples may be +Inf (a failed operation, see sampleFor); a percentile
// that lands on one is +Inf.
func percentile(xs []float64, p float64) (float64, error) {
	if need := minSamples(p); len(xs) < need {
		return 0, fmt.Errorf("p%g refused: %d samples, need at least %d", p, len(xs), need)
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}
