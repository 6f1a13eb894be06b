package placement

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkIslandGA measures the island model's wall-clock scaling at a
// fixed total search budget: islands=n runs totalGens/n generations on
// each of n islands with n workers, so every variant prices the same
// number of individuals end to end. On a multi-core machine islands=4
// should finish in roughly a quarter of islands=1's wall clock (the
// islands are the parallel axis; per-island evaluation is serial by
// design). The kernel is built once outside the timer, as the engine
// batch layer provides it in production.
func BenchmarkIslandGA(b *testing.B) {
	s, _, _ := twoOptBenchWorkload(b)
	kern := NewCostKernel(s)
	const totalGens = 16
	for _, islands := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("islands=%d", islands), func(b *testing.B) {
			cfg := quickGA(1)
			cfg.Mu, cfg.Lambda = 24, 24
			cfg.Generations = totalGens / islands
			cfg.Islands = islands
			cfg.Workers = islands
			cfg.MigrationEvery = 2
			opts := Options{GA: cfg, Kernel: kern, DisableGASeeding: true}
			b.ResetTimer()
			var cost int64
			for i := 0; i < b.N; i++ {
				_, c, err := Place(StrategyGA, s, 4, opts)
				if err != nil {
					b.Fatal(err)
				}
				cost = c
			}
			b.ReportMetric(float64(cost), "shifts")
		})
	}
}

// BenchmarkPortfolio compares the concurrent bound-pruned race against
// sequentially placing every strategy with full pricing — the same
// portfolio, the same winner, so the delta is pure racing overhead
// versus pruning-plus-parallelism gain. The portfolio is the
// constructive heuristics plus DMA-2opt; the kernel is prebuilt and
// shared.
func BenchmarkPortfolio(b *testing.B) {
	s, _, _ := twoOptBenchWorkload(b)
	kern := NewCostKernel(s)
	ids := append(HeuristicStrategies(), StrategyDMATwoOpt)
	opts := Options{Kernel: kern}

	b.Run("race", func(b *testing.B) {
		var cost int64
		for i := 0; i < b.N; i++ {
			r, err := RacePortfolio(context.Background(), s, 4, PortfolioConfig{
				Strategies: ids, Workers: len(ids), Options: opts,
			})
			if err != nil {
				b.Fatal(err)
			}
			cost = r.Cost
		}
		b.ReportMetric(float64(cost), "shifts")
	})
	b.Run("sequential", func(b *testing.B) {
		var cost int64
		for i := 0; i < b.N; i++ {
			best := int64(-1)
			for _, id := range ids {
				_, c, err := Place(id, s, 4, opts)
				if err != nil {
					b.Fatal(err)
				}
				if best < 0 || c < best {
					best = c
				}
			}
			cost = best
		}
		b.ReportMetric(float64(cost), "shifts")
	})
}
