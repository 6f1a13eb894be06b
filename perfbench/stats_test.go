package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs,
// n=4) returns for the same values, including its extrapolation for
// very small sets.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7.5, 0.2, 3.3, 9.9, 1.1, 4.4, 2.2}, [3]float64{1.1, 3.3, 7.5}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {100, 1000}} {
		got, err := percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("p%v of 1..1000 = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileRefusesSmallSamples(t *testing.T) {
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples was reported; it must be refused")
	}
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Error("p50 of 19 samples was reported; it must be refused")
	}
	if _, err := percentile(seq(20), 50); err != nil {
		t.Errorf("p50 of 20 samples refused: %v", err)
	}
}

func TestLatencyMetricsTakeEachOperationsMedian(t *testing.T) {
	// Three passes over the same 1000 operations; the middle pass is
	// slowed ten-fold by outside load. Each operation's median ignores
	// it, so the percentiles are those of the undisturbed passes.
	quiet := seq(1000)
	slow := make([]float64, len(quiet))
	for i, v := range quiet {
		slow[i] = 10 * v
	}
	out := &outcome{e2e: map[string]float64{}}
	typical, err := latencyMetrics(out, "op", [][]float64{quiet, slow, quiet})
	if err != nil {
		t.Fatal(err)
	}
	if out.e2e["latency_p50_ms"] != 500 || out.e2e["latency_p99_ms"] != 990 {
		t.Errorf("p50 %v p99 %v, want 500 and 990", out.e2e["latency_p50_ms"], out.e2e["latency_p99_ms"])
	}
	// The typical pass is the quiet one: 1 + 2 + … + 1000 ms.
	if want := 500.5; typical != want {
		t.Errorf("typical pass %v s, want %v s", typical, want)
	}
	// One failure in one pass is enough to put an operation past every
	// limit; 11 such operations in 1000 make p99 infinite.
	failing := append([]float64(nil), quiet...)
	for i := 0; i < 11; i++ {
		failing[i] = math.Inf(1)
	}
	if _, err := latencyMetrics(out, "op", [][]float64{quiet, failing, quiet}); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out.e2e["latency_p99_ms"], 1) {
		t.Errorf("p99 with 11 failed operations = %v, want +Inf", out.e2e["latency_p99_ms"])
	}
	if _, err := latencyMetrics(out, "op", [][]float64{seq(999), seq(999), seq(999)}); err == nil {
		t.Error("a p99 over 999 operations was reported")
	}
	if _, err := latencyMetrics(out, "op", [][]float64{seq(1000), seq(999)}); err == nil {
		t.Error("passes with different operation counts were accepted")
	}
}
