package placement

import (
	"context"
	"sort"

	"repro/internal/pool"
)

// Island-model GA (DESIGN.md §11): GAConfig.Islands independent
// populations evolve on derived seeds and exchange elites over a ring
// topology every MigrationEvery generations. The islands are the
// parallel axis — each island's own evaluation loop runs sequentially
// (gaRun with Workers forced to 0), and up to cfg.Workers islands
// advance concurrently per round through the deterministic pool.
//
// Determinism: island i's PRNG stream depends only on (cfg.Seed, i);
// rounds are a barrier (pool.Run), and migration runs in the
// coordinating goroutine as collect-then-apply — every island's
// emigrants are snapshotted before any island's population is touched,
// with elite selection and replacement ordered by (cost, population
// index). No search decision can observe goroutine scheduling, so a
// fixed (Islands, MigrationEvery, Elites, Seed) tuple yields
// bit-identical results for any Workers value.

// islandSeed derives island i's PRNG seed from the run seed with a
// splitmix64-style finalizer, so island streams are decorrelated even
// for adjacent run seeds. Island 0 keeps the run seed unchanged — that,
// plus Islands <= 1 short-circuiting in GAContext, is what makes a
// one-island run reproduce the serial GA move-for-move.
func islandSeed(seed int64, island int) int64 {
	if island == 0 {
		return seed
	}
	z := uint64(seed) + uint64(island)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// islandGA runs the island model. Called by runGA when cfg.Islands > 1;
// Mu, Lambda and Generations are per island.
func islandGA(ctx context.Context, ev *Evaluator, q int, cfg GAConfig) (*GAResult, error) {
	islands := cfg.Islands
	migrate := cfg.MigrationEvery
	if migrate <= 0 {
		migrate = DefaultMigrationEvery
	}
	elites := cfg.Elites
	if elites <= 0 {
		elites = DefaultElites
	}
	if elites > cfg.Mu {
		elites = cfg.Mu
	}

	// Every island prices through the one evaluator, so the kernel is
	// built once and shared (it is immutable and safe for concurrent
	// use); each island keeps its own fitness state via its gaRun, so
	// fitness evaluation never crosses islands.
	icfg := cfg
	icfg.Workers = 0 // islands are the parallel axis; per-island evaluation is serial

	runs := make([]*gaRun, islands)
	for i := range runs {
		c := icfg
		c.Seed = islandSeed(cfg.Seed, i)
		r, err := newGARun(ev, q, c)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	if runs[0].trivial != nil {
		return runs[0].trivial, nil
	}

	var ctxErr error
	done := 0
	for done < cfg.Generations {
		stepN := migrate
		if done+stepN > cfg.Generations {
			stepN = cfg.Generations - done
		}
		err := pool.Run(ctx, islands, cfg.Workers, func(ctx context.Context, i int) error {
			r := runs[i]
			for g := 0; g < stepN; g++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				r.step()
			}
			return nil
		})
		if err != nil {
			// Cancelled (or a sibling failed) mid-round: islands may sit
			// at different generation counts now, but every recorded
			// best is a fully evaluated placement, so the best-so-far
			// composition below stays valid.
			ctxErr = err
			break
		}
		done += stepN
		if cfg.IslandProgress != nil {
			for i, r := range runs {
				cfg.IslandProgress(i, r.gens, r.best.cost)
			}
		}
		if done < cfg.Generations && islands > 1 {
			migrateRing(runs, elites)
		}
	}

	return composeIslands(runs, ctxErr)
}

// migrateRing sends each island's top elites to its ring successor
// (island i receives from island (i-1+n)%n). Emigrants are snapshotted
// from every island before any island is modified, so the exchange is
// order-independent; selection and replacement are by (cost, population
// index), so it is also schedule-independent.
func migrateRing(runs []*gaRun, elites int) {
	n := len(runs)
	out := make([][]individual, n)
	for i, r := range runs {
		out[i] = r.emigrants(elites)
	}
	for i, r := range runs {
		r.immigrate(out[(i-1+n)%n])
	}
}

// emigrants clones the run's k best individuals, ordered by (cost,
// population index).
func (r *gaRun) emigrants(k int) []individual {
	idx := popByCost(r.pop)
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]individual, k)
	for j := 0; j < k; j++ {
		src := r.pop[idx[j]]
		out[j] = individual{p: src.p.Clone(), cost: src.cost}
	}
	return out
}

// immigrate replaces the run's worst individuals with the incoming
// elites (which the sender already priced under the shared objective, so
// no re-evaluation is needed). Replaced placements are dropped rather
// than recycled — tournament selection can alias one placement across
// several population slots, so a replaced slot's placement may still be
// live elsewhere.
func (r *gaRun) immigrate(in []individual) {
	idx := popByCost(r.pop)
	for j, m := range in {
		slot := idx[len(idx)-1-j] // worst first, ties broken by index
		r.pop[slot] = m
		if m.cost < r.best.cost {
			r.best = m
		}
	}
}

// popByCost returns the population's indices ordered by ascending cost,
// ties by ascending index.
func popByCost(pop []individual) []int {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pop[idx[a]].cost < pop[idx[b]].cost })
	return idx
}

// composeIslands merges per-island results into one GAResult: the best
// placement across islands (ties to the lowest island index), summed
// evaluations, per-island generation count, and a history whose entry g
// is the best cost any island had reached by its generation g — the
// convergence curve of the ensemble at equal per-island budget.
func composeIslands(runs []*gaRun, ctxErr error) (*GAResult, error) {
	best := runs[0]
	for _, r := range runs[1:] {
		if r.best.cost < best.best.cost {
			best = r
		}
	}
	res := &GAResult{
		Best: best.best.p.Clone(),
		Cost: best.best.cost,
	}
	histLen := 0
	for _, r := range runs {
		res.Evaluations += r.evalCount
		if r.gens > res.Generations {
			res.Generations = r.gens
		}
		if len(r.history) > histLen {
			histLen = len(r.history)
		}
	}
	res.History = make([]int64, histLen)
	for g := range res.History {
		var min int64
		have := false
		for _, r := range runs {
			if g < len(r.history) && (!have || r.history[g] < min) {
				min, have = r.history[g], true
			}
		}
		res.History[g] = min
	}
	return res, ctxErr
}
