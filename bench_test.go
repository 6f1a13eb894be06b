// Benchmarks regenerating every table and figure of the paper (quick
// scale; use cmd/rtmbench -full for the paper's complete budgets) plus the
// ablations called out in DESIGN.md §6 and micro-benchmarks of the core
// algorithms.
//
// Figure/table benches report the headline statistic of their experiment
// via b.ReportMetric, so `go test -bench .` doubles as a one-shot
// reproduction summary.
package racetrack

import (
	"context"
	"testing"

	"repro/internal/eval"
	"repro/internal/offsetstone"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/soa"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// benchCfg is the evaluation scale used by the figure benchmarks: the
// Quick scale trimmed a little further so a full -bench=. run stays in
// seconds.
func benchCfg() eval.Config {
	cfg := eval.Quick()
	cfg.MaxSequences = 1
	cfg.MaxSequenceLen = 1200
	return cfg
}

// BenchmarkTableI regenerates Table I (static data; the bench measures
// the render path and asserts nothing is lost).
func BenchmarkTableI(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(eval.Table1Render())
	}
	if n == 0 {
		b.Fatal("empty Table I")
	}
}

// BenchmarkFig4 regenerates the Fig. 4 experiment and reports the
// AFD-OFU/DMA-OFU shift-improvement geomeans the paper quotes
// (2.4x/2.9x/2.8x/1.7x for 2/4/8/16 DBCs).
func BenchmarkFig4(b *testing.B) {
	cfg := benchCfg()
	var res *eval.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.Fig4(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range cfg.DBCCounts {
		b.ReportMetric(res.AFDOverDMA[q], "afd/dma-"+itoa(q)+"dbc")
	}
}

// BenchmarkFig5 regenerates the Fig. 5 energy experiment and reports the
// DMA-SR total-energy savings vs AFD-OFU (paper: 77/70/50/21 % for
// 2/4/8/16 DBCs).
func BenchmarkFig5(b *testing.B) {
	cfg := benchCfg()
	var res *eval.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.Fig5(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range cfg.DBCCounts {
		b.ReportMetric(100*res.EnergySavings[placement.StrategyDMASR][q], "sr-save%-"+itoa(q)+"dbc")
	}
}

// BenchmarkFig6 regenerates the Fig. 6 DBC trade-off and reports the
// DMA-SR shift improvement per DBC count (diminishing with DBC count).
func BenchmarkFig6(b *testing.B) {
	cfg := benchCfg()
	var res *eval.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.Fig6(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.ShiftImprovement, "shift-imp-"+itoa(row.DBCs)+"dbc")
	}
}

// BenchmarkLatency regenerates the section IV-C latency numbers and
// reports the DMA-SR improvement per DBC count (paper: 70.1/62/37.7/
// 14.6 %).
func BenchmarkLatency(b *testing.B) {
	cfg := benchCfg()
	var res *eval.LatencyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.Latency(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range cfg.DBCCounts {
		b.ReportMetric(100*res.Improvement[placement.StrategyDMASR][q], "sr-lat%-"+itoa(q)+"dbc")
	}
}

// BenchmarkHeadline regenerates the abstract's aggregates (paper: 4.3x
// shifts, 46 % latency, 55 % energy).
func BenchmarkHeadline(b *testing.B) {
	cfg := benchCfg()
	var res *eval.HeadlineResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.Headline(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ShiftImprovement, "shift-x")
	b.ReportMetric(100*res.LatencyReduction, "latency-%")
	b.ReportMetric(100*res.EnergyReduction, "energy-%")
}

// BenchmarkLongGA runs a scaled version of the section IV-B optimality
// probe (paper: 2000 generations; here 60 to keep -bench=. fast) and
// reports the heuristic-to-GA gap.
func BenchmarkLongGA(b *testing.B) {
	cfg := benchCfg()
	var res *eval.LongGAResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.LongGA(context.Background(), cfg, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.GapFraction, "heuristic-gap-%")
}

// --- Ablations (DESIGN.md §6) ---------------------------------------

// ablationWorkload returns a mid-size sequence for operator ablations.
func ablationWorkload(b *testing.B) *trace.Sequence {
	b.Helper()
	bench, err := offsetstone.Generate("gsm")
	if err != nil {
		b.Fatal(err)
	}
	seq := bench.Sequences[0]
	for _, s := range bench.Sequences {
		if s.Len() > seq.Len() {
			seq = s
		}
	}
	return seq
}

func gaBase(seed int64) placement.GAConfig {
	return placement.GAConfig{Mu: 24, Lambda: 24, Generations: 25,
		TournamentK: 4, MutationRate: 0.5,
		MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: seed}
}

// BenchmarkAblationGASeeding compares the paper's heuristic-seeded GA
// against a cold-start GA at the same budget.
func BenchmarkAblationGASeeding(b *testing.B) {
	seq := ablationWorkload(b)
	for _, mode := range []struct {
		name string
		cold bool
	}{{"seeded", false}, {"cold", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				_, c, err := placement.Place(placement.StrategyGA, seq, 4,
					placement.Options{GA: gaBase(int64(i) + 1), DisableGASeeding: mode.cold})
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(float64(cost), "shifts")
		})
	}
}

// BenchmarkAblationMutationSkew compares the paper's 10:10:3 mutation
// skew against uniform operator selection.
func BenchmarkAblationMutationSkew(b *testing.B) {
	seq := ablationWorkload(b)
	for _, mode := range []struct {
		name    string
		permute int
	}{{"skewed-10-10-3", 3}, {"uniform-10-10-10", 10}} {
		b.Run(mode.name, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				cfg := gaBase(int64(i) + 1)
				cfg.PermuteWeight = mode.permute
				opts := placement.Options{GA: cfg}
				_, c, err := placement.Place(placement.StrategyGA, seq, 4, opts)
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(float64(cost), "shifts")
		})
	}
}

// BenchmarkAblationDisjointIntra compares keeping the disjoint DBC in
// access order (Algorithm 1) against also re-running ShiftsReduce on it.
func BenchmarkAblationDisjointIntra(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	for _, mode := range []struct {
		name string
		from func(k int) int
	}{
		{"keep-access-order", func(k int) int { return k }},
		{"reorder-all-dbcs", func(int) int { return 0 }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				r, err := placement.DMA(a, 4, 0)
				if err != nil {
					b.Fatal(err)
				}
				p := placement.ApplyIntra(r.Placement, mode.from(r.DisjointDBCs), 4,
					placement.ShiftsReduce, seq, a)
				c, err := placement.ShiftCost(seq, p)
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(float64(cost), "shifts")
		})
	}
}

// BenchmarkAblationAdmissionRule compares the paper's strict Av > sum
// admission against admitting ties (Av >= sum).
func BenchmarkAblationAdmissionRule(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	for _, mode := range []struct {
		name string
		ties bool
	}{{"strict", false}, {"admit-ties", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				r, err := placement.DMAWithRule(a, 4, 0, mode.ties)
				if err != nil {
					b.Fatal(err)
				}
				c, err := placement.ShiftCost(seq, r.Placement)
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(float64(cost), "shifts")
		})
	}
}

// BenchmarkAblationMultiSet compares plain DMA against the future-work
// multi-set extraction (paper section VI) on the synthetic suite.
func BenchmarkAblationMultiSet(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	for _, mode := range []struct {
		name  string
		multi bool
	}{{"single-set", false}, {"multi-set", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				var p *placement.Placement
				if mode.multi {
					r, err := placement.DMAMulti(a, 4, 0, 0)
					if err != nil {
						b.Fatal(err)
					}
					p = r.Placement
				} else {
					r, err := placement.DMA(a, 4, 0)
					if err != nil {
						b.Fatal(err)
					}
					p = r.Placement
				}
				c, err := placement.ShiftCost(seq, p)
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(float64(cost), "shifts")
		})
	}
}

// BenchmarkAblationTwoOpt measures what a 2-opt polish pass (the TSP view
// of offset assignment, the paper's ref [4]) adds on top of each intra
// heuristic.
func BenchmarkAblationTwoOpt(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	for _, mode := range []struct {
		name   string
		intra  placement.IntraHeuristic
		polish bool
	}{
		{"sr", placement.ShiftsReduce, false},
		{"sr+2opt", placement.ShiftsReduce, true},
		{"chen", placement.Chen, false},
		{"chen+2opt", placement.Chen, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				r, err := placement.DMA(a, 4, 0)
				if err != nil {
					b.Fatal(err)
				}
				p := placement.ApplyIntra(r.Placement, r.DisjointDBCs, 4, mode.intra, seq, a)
				if mode.polish {
					p = placement.ApplyIntra(p, r.DisjointDBCs, 4, placement.TwoOpt, seq, a)
				}
				c, err := placement.ShiftCost(seq, p)
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(float64(cost), "shifts")
		})
	}
}

// BenchmarkPortsSweep regenerates the access-port extension experiment
// (section II-B generalization): DMA-SR improvement over AFD-OFU per
// port count.
func BenchmarkPortsSweep(b *testing.B) {
	cfg := benchCfg()
	cfg.DBCCounts = []int{4}
	var res *eval.PortsResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.PortsSweep(context.Background(), cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Improved, "imp-"+itoa(row.Ports)+"port")
	}
}

// BenchmarkAblationRuntimeSwap compares static placement (the paper's
// approach) against runtime data swapping (ref [20]) and the combination,
// on the same workload and device. The paper's argument: placement gets
// the shifts down without the swap-induced write traffic.
func BenchmarkAblationRuntimeSwap(b *testing.B) {
	seq := ablationWorkload(b)
	simCfg, err := sim.TableIConfig(4)
	if err != nil {
		b.Fatal(err)
	}
	a := trace.Analyze(seq)
	// Naive layout for the dynamic-only variant: first-use round-robin.
	naive := placement.NewEmpty(4)
	for i, v := range a.ByFirstUse() {
		naive.DBC[i%4] = append(naive.DBC[i%4], v)
	}
	srPlace, _, err := placement.Place(placement.StrategyDMASR, seq, 4, placement.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		p    *placement.Placement
		swap bool
	}{
		{"static-naive", naive, false},
		{"dynamic-swap", naive, true},
		{"static-dma-sr", srPlace, false},
		{"combined", srPlace, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var shifts, writes int64
			for i := 0; i < b.N; i++ {
				r, err := sim.RunSequenceSwapping(simCfg, seq, mode.p,
					sim.SwapConfig{Enable: mode.swap})
				if err != nil {
					b.Fatal(err)
				}
				shifts, writes = r.Counts.Shifts, r.Counts.Writes
			}
			b.ReportMetric(float64(shifts), "shifts")
			b.ReportMetric(float64(writes), "writes")
		})
	}
}

// --- Micro-benchmarks -------------------------------------------------

func BenchmarkShiftCostEval(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	r, err := placement.DMA(a, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.ShiftCost(seq, r.Placement); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(seq.Len()))
}

func BenchmarkDMAHeuristic(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.DMA(a, 4, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChenIntra(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	vars := a.ByFirstUse()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placement.Chen(vars, seq, a)
	}
}

func BenchmarkShiftsReduceIntra(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	vars := a.ByFirstUse()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placement.ShiftsReduce(vars, seq, a)
	}
}

func BenchmarkCycleSimSerialized(b *testing.B) {
	seq := ablationWorkload(b)
	a := trace.Analyze(seq)
	r, err := placement.DMA(a, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewCycleSimulator(4, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Reset()
		if _, err := SimulateCycles(cs, seq, r.Placement, true); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(seq.Len()))
}

// BenchmarkGALocalImprove compares the paper's GA against the memetic
// variant with the delta-evaluated local-improvement mutation enabled
// (GAConfig.ImproveWeight, the "GA-2opt" registry strategy) at the same
// generation budget: shifts should drop for a modest ns/op premium.
func BenchmarkGALocalImprove(b *testing.B) {
	seq := ablationWorkload(b)
	for _, mode := range []struct {
		name    string
		improve int
	}{{"off", 0}, {"on", 3}} {
		b.Run(mode.name, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				cfg := gaBase(int64(i) + 1)
				cfg.ImproveWeight = mode.improve
				_, c, err := placement.Place(placement.StrategyGA, seq, 4,
					placement.Options{GA: cfg})
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(float64(cost), "shifts")
		})
	}
}

// BenchmarkGAGeneration measures the steady-state cost of one GA
// generation: the cost kernel is built once outside the timer, exactly
// as the engine batch layer provides it to every GA cell in production
// (the build amortizes over a run's hundreds of generations, not over
// one).
func BenchmarkGAGeneration(b *testing.B) {
	seq := ablationWorkload(b)
	opts := placement.Options{GA: gaBase(1), Kernel: placement.NewCostKernel(seq), DisableGASeeding: true}
	opts.GA.Generations = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.GA.Seed = int64(i) + 1
		if _, _, err := placement.Place(placement.StrategyGA, seq, 4, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRTMCacheAccess(b *testing.B) {
	c, err := NewRTMCache(RTMCacheConfig{Sets: 8, Ways: 8, LineBytes: 64,
		Policy: CacheInsertNearPort, Ports: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Access(int64(i*61%4096)*64, i%5 == 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*c.Stats().HitRatio(), "hit%")
}

func BenchmarkSOALiao(b *testing.B) {
	seq := ablationWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := soa.Liao(seq)
		if len(order) == 0 {
			b.Fatal("empty layout")
		}
	}
}

func BenchmarkTensorTrace(b *testing.B) {
	c := tensor.Contraction{I: 8, J: 8, K: 8, Order: tensor.IJK, Accumulate: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Trace(); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
