package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/trace"
)

// GAConfig carries the genetic-algorithm parameters of section III-C of
// the paper. DefaultGAConfig returns the published values.
type GAConfig struct {
	// Mu is the population size carried between generations (µ = 100).
	Mu int
	// Lambda is the number of offspring per generation (λ = 100).
	Lambda int
	// Generations is the number of iterations (200 in the evaluation;
	// 2000 for the long-run optimality probe).
	Generations int
	// TournamentK is the tournament size for selection (4).
	TournamentK int
	// MutationRate is the per-offspring probability of applying one
	// mutation after crossover. The paper does not publish this value;
	// 0.5 is used and ablated in bench_test.go.
	MutationRate float64
	// MoveWeight, TransposeWeight, PermuteWeight skew the choice between
	// the three mutation operators. The paper skews the destructive
	// whole-DBC permutation against the others "in a ratio of 10 : 3".
	MoveWeight      int
	TransposeWeight int
	PermuteWeight   int
	// ImproveWeight, when positive, adds a fourth, memetic mutation
	// operator to the weighted choice: one delta-evaluated 2-opt
	// improvement sweep (DeltaEvaluator, delta.go) over the offset order
	// of one random DBC. Each candidate move costs O(freq) instead of a
	// full trace replay, so the operator is affordable inside the
	// breeding loop. Not part of the paper's GA; 0 (the default)
	// disables it. The "GA-2opt" registry strategy enables it.
	ImproveWeight int
	// Seed drives the deterministic PRNG.
	Seed int64
	// Seeds optionally injects heuristic placements into the initial
	// population (the paper seeds with its heuristic results).
	Seeds []*Placement
	// Capacity, when positive, rejects DBC overflows during search.
	Capacity int
	// Workers evaluates offspring fitness on this many goroutines
	// (0 or 1 = sequential). Search decisions stay on one PRNG stream, so
	// results are deterministic for a fixed Seed regardless of Workers.
	Workers int
	// Islands, when > 1, switches to the island model (islands.go): that
	// many independent populations evolve on derived seeds and exchange
	// elites over a ring every MigrationEvery generations, with islands
	// running concurrently on up to Workers goroutines. Generations,
	// Mu and Lambda are per island. Results are bit-identical for a
	// fixed (Islands, MigrationEvery, Elites, Seed) tuple regardless of
	// Workers and goroutine scheduling. 0 or 1 is the serial GA.
	Islands int
	// MigrationEvery is the island-model migration interval in
	// generations (0 means DefaultMigrationEvery). Ignored unless
	// Islands > 1.
	MigrationEvery int
	// Elites is the number of top individuals each island sends to its
	// ring successor per migration (0 means DefaultElites, clamped to
	// Mu). Ignored unless Islands > 1.
	Elites int
	// IslandProgress, when non-nil and Islands > 1, receives each
	// island's generation count and best cost after every migration
	// round. It is invoked from the coordinating goroutine between
	// rounds (islands ascending), so it needs no locking of its own.
	IslandProgress func(island, generation int, best int64)
}

// DefaultMigrationEvery is the island-model migration interval used when
// GAConfig.MigrationEvery is 0: long enough for islands to diverge
// between exchanges, short enough that a good elite spreads around a
// small ring within a default 200-generation run.
const DefaultMigrationEvery = 10

// DefaultElites is the per-migration elite count used when
// GAConfig.Elites is 0.
const DefaultElites = 2

// DefaultGAConfig returns the paper's published GA parameters.
func DefaultGAConfig() GAConfig {
	return GAConfig{
		Mu:              100,
		Lambda:          100,
		Generations:     200,
		TournamentK:     4,
		MutationRate:    0.5,
		MoveWeight:      10,
		TransposeWeight: 10,
		PermuteWeight:   3,
		Seed:            1,
	}
}

// GAResult reports the best placement found and search statistics.
type GAResult struct {
	Best        *Placement
	Cost        int64
	Generations int
	Evaluations int64
	// History records the best cost after every generation, for
	// convergence plots.
	History []int64
}

type individual struct {
	p    *Placement
	cost int64
}

// GA runs the paper's µ+λ genetic algorithm over complete placements for
// the sequence into q DBCs, under the single-port cost model. It is
// GAContext without cancellation.
//
// Fitness is the int64 shift count under every objective: each
// constructible CostModel is strictly monotone in shifts (costmodel.go),
// so comparing shifts is comparing scalarized costs, and selection,
// elitism and the best-so-far trajectory are identical across
// objectives. Ties keep the earlier individual.
func GA(s *trace.Sequence, q int, cfg GAConfig) (*GAResult, error) {
	//rtmlint:ctxcheck-ok legacy compat entry point without cancellation; no caller context exists
	return GAContext(context.Background(), s, q, cfg)
}

// GAContext is GA with cooperative cancellation: the context is checked
// between generations (and, under the island model, between migration
// rounds), so a Lab.Place deadline interrupts a long run instead of
// being ignored. On cancellation it returns the best placement found so
// far together with the context's error — callers that can use a
// partial result get one, callers that cannot treat it as a plain
// failure. With cfg.Islands > 1 the search runs the island model of
// islands.go. The GA builds the sequence's cost kernel itself; the GA
// strategy (registry.go) runs it on the options' evaluator instead, which
// may carry a shared kernel or a multi-port model.
func GAContext(ctx context.Context, s *trace.Sequence, q int, cfg GAConfig) (*GAResult, error) {
	return runGA(ctx, NewEvaluator(s, nil, nil), q, cfg)
}

// runGA is GAContext on a resolved cost path: fitness and the memetic
// polish price through ev.
func runGA(ctx context.Context, ev *Evaluator, q int, cfg GAConfig) (*GAResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Islands > 1 {
		return islandGA(ctx, ev, q, cfg)
	}
	r, err := newGARun(ev, q, cfg)
	if err != nil {
		return nil, err
	}
	if r.trivial != nil {
		return r.trivial, nil
	}
	for gen := 0; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return r.result(), err
		}
		r.step()
	}
	return r.result(), nil
}

// gaRun is one GA population mid-search: the serial GA is a loop of
// step() calls over a single gaRun, and the island model advances one
// gaRun per island (islands.go), migrating elites between rounds. All
// run-long state (PRNG stream, fitness state, scratch buffers, placement
// free list) lives here, so stepping stays allocation-free and a run
// split into rounds is bit-identical to an uninterrupted one.
type gaRun struct {
	ev   *Evaluator
	q    int
	cfg  GAConfig
	rng  *rand.Rand
	vars []int

	fit *fitness

	pop  []individual
	best individual

	xsc     xoverScratch // crossover's variable→DBC tables, reused all run
	pp      placementPool
	workers []*fitness // parallel fitness state, one per worker

	gens      int
	evalCount int64
	history   []int64

	// trivial short-circuits a sequence with no accessed variables: the
	// search space is a single empty placement and stepping is
	// meaningless.
	trivial *GAResult
}

// newGARun validates the configuration and initializes the population
// (heuristic seeds first, then random placements), exactly as the serial
// GA always has.
func newGARun(ev *Evaluator, q int, cfg GAConfig) (*gaRun, error) {
	if q <= 0 {
		return nil, fmt.Errorf("placement: q must be positive, got %d", q)
	}
	if cfg.Mu <= 0 || cfg.Lambda <= 0 || cfg.Generations < 0 || cfg.TournamentK <= 0 {
		return nil, fmt.Errorf("placement: invalid GA config %+v", cfg)
	}
	a := trace.Analyze(ev.s)
	vars := a.ByFirstUse() // variables indexed by appearance order, as the crossover requires
	if len(vars) == 0 {
		return &gaRun{trivial: &GAResult{Best: NewEmpty(q)}}, nil
	}
	// The history preallocation is capped: a deadline-bounded run may ask
	// for a huge generation budget and be cancelled after a handful, and
	// an eager cfg.Generations-sized buffer would be allocated up front.
	histCap := cfg.Generations
	if histCap > 4096 {
		histCap = 4096
	}
	r := &gaRun{
		ev:      ev,
		q:       q,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		vars:    vars,
		fit:     ev.fitness(q), // allocation-free pricing from here on
		history: make([]int64, 0, histCap),
	}

	r.pop = make([]individual, 0, cfg.Mu)
	for _, seed := range cfg.Seeds {
		if len(r.pop) == cfg.Mu {
			break
		}
		if seed.NumDBCs() != q {
			return nil, fmt.Errorf("placement: seed has %d DBCs, want %d", seed.NumDBCs(), q)
		}
		c := seed.Clone()
		r.pop = append(r.pop, individual{p: c, cost: r.eval(c)})
	}
	for len(r.pop) < cfg.Mu {
		p := randomPlacement(r.rng, vars, q, cfg.Capacity)
		r.pop = append(r.pop, individual{p: p, cost: r.eval(p)})
	}

	r.best = r.pop[0]
	for _, ind := range r.pop[1:] {
		if ind.cost < r.best.cost {
			r.best = ind
		}
	}
	return r, nil
}

// eval prices one placement under the run's objective.
func (r *gaRun) eval(p *Placement) int64 {
	r.evalCount++
	return r.fit.cost(p)
}

// step advances the population by one generation.
func (r *gaRun) step() {
	cfg := r.cfg
	// Breed the whole offspring batch first (sequential, one PRNG
	// stream), then evaluate fitness — possibly in parallel.
	offspring := make([]individual, 0, cfg.Lambda)
	for len(offspring) < cfg.Lambda {
		p1 := tournament(r.rng, r.pop, cfg.TournamentK)
		p2 := tournament(r.rng, r.pop, cfg.TournamentK)
		c1, c2 := r.pp.clone(p1.p), r.pp.clone(p2.p)
		crossoverInto(r.rng, c1, c2, r.vars, cfg.Capacity, &r.xsc)
		for _, c := range []*Placement{c1, c2} {
			if len(offspring) == cfg.Lambda {
				break
			}
			if r.rng.Float64() < cfg.MutationRate {
				mutate(r.rng, c, r.ev, cfg)
			}
			offspring = append(offspring, individual{p: c})
		}
	}
	if cfg.Workers > 1 {
		if r.workers == nil {
			r.workers = make([]*fitness, cfg.Workers)
			for w := range r.workers {
				r.workers[w] = r.ev.fitness(r.q)
			}
		}
		evalParallel(r.workers, offspring)
		r.evalCount += int64(len(offspring))
	} else {
		for i := range offspring {
			offspring[i].cost = r.eval(offspring[i].p)
		}
	}
	// µ+λ selection via tournaments over the combined pool, with
	// elitism: the best individual always survives.
	pool := append(r.pop, offspring...)
	next := make([]individual, 0, cfg.Mu)
	poolBest := pool[0]
	for _, ind := range pool[1:] {
		if ind.cost < poolBest.cost {
			poolBest = ind
		}
	}
	next = append(next, poolBest)
	for len(next) < cfg.Mu {
		next = append(next, tournament(r.rng, pool, cfg.TournamentK))
	}
	r.pop = next
	if poolBest.cost < r.best.cost {
		r.best = poolBest
	}
	r.gens++
	r.history = append(r.history, r.best.cost)

	// Recycle the placements of offspring that did not survive
	// selection (offspring pointers are unique, so no double-free;
	// the all-time best is pinned even when an equal-cost rival
	// displaced it from the population).
	for _, o := range offspring {
		survived := o.p == r.best.p
		for _, ind := range r.pop {
			if survived {
				break
			}
			survived = ind.p == o.p
		}
		if !survived {
			r.pp.put(o.p)
		}
	}
}

// result packages the run's best-so-far state. Generations reports the
// generations actually stepped, so a cancelled run is distinguishable
// from a completed one.
func (r *gaRun) result() *GAResult {
	return &GAResult{
		Best:        r.best.p.Clone(),
		Cost:        r.best.cost,
		Generations: r.gens,
		Evaluations: r.evalCount,
		History:     r.history,
	}
}

// evalParallel computes offspring fitness on a worker pool. Each worker
// owns run-long fitness state (so cross-generation content sharing hits
// its DBC cost cache exactly as the serial path does), and all workers
// share the immutable kernel or port model. Costs are identical to the
// sequential path (caches change speed, never values).
func evalParallel(workers []*fitness, offspring []individual) {
	var wg sync.WaitGroup
	next := make(chan int)
	n := len(workers)
	if n > len(offspring) {
		n = len(offspring)
	}
	for w := 0; w < n; w++ {
		f := workers[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				offspring[i].cost = f.cost(offspring[i].p)
			}
		}()
	}
	for i := range offspring {
		next <- i
	}
	close(next)
	wg.Wait()
}

func fillLookup(l *Lookup, p *Placement) {
	for v := range l.DBCOf {
		l.DBCOf[v] = -1
		l.Offset[v] = -1
	}
	for d, vars := range p.DBC {
		for off, v := range vars {
			l.DBCOf[v] = d
			l.Offset[v] = off
		}
	}
}

// tournament draws k individuals with replacement and keeps the fittest
// (raw shift order for every objective — see GA).
func tournament(rng *rand.Rand, pop []individual, k int) individual {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.cost < best.cost {
			best = c
		}
	}
	return best
}

// randomPlacement assigns each variable to a uniform random DBC and
// shuffles each DBC, respecting capacity when positive.
func randomPlacement(rng *rand.Rand, vars []int, q, capacity int) *Placement {
	p := NewEmpty(q)
	randomPlacementInto(p, rng, vars, capacity)
	return p
}

// randomPlacementInto is randomPlacement into a reusable placement (the
// DBC slices are truncated and refilled, keeping their capacity). The
// PRNG consumption is identical to randomPlacement's, so a search that
// switches to buffer reuse visits the same placements.
func randomPlacementInto(p *Placement, rng *rand.Rand, vars []int, capacity int) {
	q := len(p.DBC)
	for d := range p.DBC {
		p.DBC[d] = p.DBC[d][:0]
	}
	for _, v := range vars {
		d := rng.Intn(q)
		if capacity > 0 {
			for tries := 0; len(p.DBC[d]) >= capacity && tries < q; tries++ {
				d = (d + 1) % q
			}
		}
		p.DBC[d] = append(p.DBC[d], v)
	}
	for _, d := range p.DBC {
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
}

// xoverScratch holds crossover's two variable→DBC tables. They are
// rebuilt (densely, no hashing) at every call and reused across the
// whole run, so the breeding loop stops allocating per pair; entries of
// unplaced variables are stale but never read (both parents place the
// same variable set, and only placed variables are looked up).
type xoverScratch struct {
	d1, d2 []int
}

// placementPool is a free list of dead placements. The breeding loop
// clones two parents per pair, and selection discards most offspring a
// generation later; recycling their placements (and DBC slices) removes
// the dominant allocation source of the GA. Purely a memory
// optimization: clone contents are identical either way.
type placementPool struct {
	free []*Placement
}

// clone returns a deep copy of src, reusing a recycled placement's
// storage when one is available.
func (pp *placementPool) clone(src *Placement) *Placement {
	n := len(pp.free)
	if n == 0 {
		return src.Clone()
	}
	dst := pp.free[n-1]
	pp.free = pp.free[:n-1]
	if cap(dst.DBC) < len(src.DBC) {
		dst.DBC = make([][]int, len(src.DBC))
	}
	dst.DBC = dst.DBC[:len(src.DBC)]
	for d, vars := range src.DBC {
		dst.DBC[d] = append(dst.DBC[d][:0], vars...)
	}
	return dst
}

// put returns a dead placement to the free list.
func (pp *placementPool) put(p *Placement) { pp.free = append(pp.free, p) }

// crossover implements the paper's 2-fold crossover: variables are indexed
// in sequence-appearance order; a contiguous index range [f, l] is chosen
// and the DBC assignments of those variables are swapped between the two
// parents. A swapped variable is removed from its old DBC and appended to
// the end of its new DBC, so within-DBC orders of untouched variables are
// preserved and both children remain valid placements. When capacity is
// positive, a move that would overflow the target DBC is skipped for that
// child (the other child may still take its half of the swap).
func crossover(rng *rand.Rand, i, j *Placement, vars []int, capacity int, sc *xoverScratch) (*Placement, *Placement) {
	c1, c2 := i.Clone(), j.Clone()
	crossoverInto(rng, c1, c2, vars, capacity, sc)
	return c1, c2
}

// crossoverInto is crossover operating on the pre-cloned children in
// place (the breeding loop clones through its placement pool first).
func crossoverInto(rng *rand.Rand, c1, c2 *Placement, vars []int, capacity int, sc *xoverScratch) {
	if len(vars) < 2 {
		return
	}
	f := rng.Intn(len(vars))
	l := rng.Intn(len(vars))
	if f > l {
		f, l = l, f
	}
	d1 := dbcIndexInto(&sc.d1, c1)
	d2 := dbcIndexInto(&sc.d2, c2)
	for _, v := range vars[f : l+1] {
		r, s := d1[v], d2[v]
		if r == s {
			continue
		}
		if capacity <= 0 || len(c1.DBC[s]) < capacity {
			moveVar(c1, v, r, s)
		}
		if capacity <= 0 || len(c2.DBC[r]) < capacity {
			moveVar(c2, v, s, r)
		}
	}
}

// dbcIndexInto fills a dense variable→DBC table into the reusable
// buffer, growing it to cover the placement's variable range.
func dbcIndexInto(buf *[]int, p *Placement) []int {
	width := 0
	for _, vars := range p.DBC {
		for _, v := range vars {
			if v+1 > width {
				width = v + 1
			}
		}
	}
	if cap(*buf) < width {
		*buf = make([]int, width)
	}
	m := (*buf)[:width]
	for d, vars := range p.DBC {
		for _, v := range vars {
			m[v] = d
		}
	}
	return m
}

func moveVar(p *Placement, v, from, to int) {
	d := p.DBC[from]
	for i, x := range d {
		if x == v {
			p.DBC[from] = append(d[:i], d[i+1:]...)
			break
		}
	}
	p.DBC[to] = append(p.DBC[to], v)
}

// mutate applies one of the paper's three mutation operators — move a
// variable to the end of another DBC, transpose two variables inside one
// DBC, or randomly permute every DBC — or, when ImproveWeight is positive,
// the memetic local-improvement operator, chosen with the configured
// weights.
func mutate(rng *rand.Rand, p *Placement, ev *Evaluator, cfg GAConfig) {
	total := cfg.MoveWeight + cfg.TransposeWeight + cfg.PermuteWeight + cfg.ImproveWeight
	if total <= 0 {
		return
	}
	switch r := rng.Intn(total); {
	case r < cfg.MoveWeight:
		mutateMove(rng, p, cfg.Capacity)
	case r < cfg.MoveWeight+cfg.TransposeWeight:
		mutateTranspose(rng, p)
	case r < cfg.MoveWeight+cfg.TransposeWeight+cfg.PermuteWeight:
		mutatePermute(rng, p)
	default:
		mutateImprove(rng, p, ev)
	}
}

// mutateImprove runs one first-improvement 2-opt sweep over the offset
// order of one random DBC with at least three variables, evaluated
// incrementally under the run's objective (Evaluator.improveStep), so the
// polish improves the same cost the fitness function charges. It can
// only keep or lower the individual's fitness; the GA's exploration
// pressure comes from the other operators.
func mutateImprove(rng *rand.Rand, p *Placement, ev *Evaluator) {
	var eligible []int
	for d, vars := range p.DBC {
		if len(vars) >= 3 {
			eligible = append(eligible, d)
		}
	}
	if len(eligible) == 0 {
		return
	}
	ev.improveStep(p.DBC[eligible[rng.Intn(len(eligible))]])
}

func mutateMove(rng *rand.Rand, p *Placement, capacity int) {
	if len(p.DBC) < 2 {
		return
	}
	// Pick a random variable uniformly over placed variables.
	n := p.NumPlaced()
	if n == 0 {
		return
	}
	k := rng.Intn(n)
	from, idx := -1, -1
	for d, vars := range p.DBC {
		if k < len(vars) {
			from, idx = d, k
			break
		}
		k -= len(vars)
	}
	to := rng.Intn(len(p.DBC) - 1)
	if to >= from {
		to++
	}
	if capacity > 0 && len(p.DBC[to]) >= capacity {
		return
	}
	v := p.DBC[from][idx]
	p.DBC[from] = append(p.DBC[from][:idx], p.DBC[from][idx+1:]...)
	p.DBC[to] = append(p.DBC[to], v)
}

func mutateTranspose(rng *rand.Rand, p *Placement) {
	// Choose among DBCs with at least two variables.
	var eligible []int
	for d, vars := range p.DBC {
		if len(vars) >= 2 {
			eligible = append(eligible, d)
		}
	}
	if len(eligible) == 0 {
		return
	}
	d := eligible[rng.Intn(len(eligible))]
	vars := p.DBC[d]
	i := rng.Intn(len(vars))
	j := rng.Intn(len(vars) - 1)
	if j >= i {
		j++
	}
	vars[i], vars[j] = vars[j], vars[i]
}

func mutatePermute(rng *rand.Rand, p *Placement) {
	for _, d := range p.DBC {
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
}

// RWConfig configures the random-walk search baseline.
type RWConfig struct {
	// Iterations is the number of random placements evaluated (60 000 in
	// the paper, the upper bound on individuals the GA could evaluate).
	Iterations int
	Seed       int64
	Capacity   int
}

// DefaultRWConfig returns the paper's random-walk parameters.
func DefaultRWConfig() RWConfig { return RWConfig{Iterations: 60000, Seed: 1} }

// RandomWalk generates random placements of the variables to DBCs with
// random within-DBC permutations and returns the best one found, under
// the single-port cost model. Candidates are compared by raw shift count
// under every objective (the monotone reduction of costmodel.go), so the
// visited best-so-far sequence is identical across objectives.
func RandomWalk(s *trace.Sequence, q int, cfg RWConfig) (*Placement, int64, error) {
	return randomWalk(NewEvaluator(s, nil, nil), q, cfg)
}

// randomWalk is RandomWalk on a resolved cost path.
func randomWalk(ev *Evaluator, q int, cfg RWConfig) (*Placement, int64, error) {
	if q <= 0 {
		return nil, 0, fmt.Errorf("placement: q must be positive, got %d", q)
	}
	if cfg.Iterations <= 0 {
		return nil, 0, fmt.Errorf("placement: iterations must be positive, got %d", cfg.Iterations)
	}
	s := ev.s
	a := trace.Analyze(s)
	vars := a.ByFirstUse()
	rng := rand.New(rand.NewSource(cfg.Seed))
	lookup := &Lookup{DBCOf: make([]int, s.NumVars()), Offset: make([]int, s.NumVars())}

	// One placement buffer is reused across all iterations; only
	// improvements (O(log iterations) of them in expectation) are
	// snapshotted. Evaluation is bounded by the best cost so far: a
	// placement that cannot win is discarded as soon as its partial sum
	// proves it (bounded evaluation is exact below the bound, and at or
	// above the bound the placement is not strictly better, so the
	// best-so-far sequence — and therefore the result — is identical to
	// full evaluation). The evaluator picks the bounded pricer.
	price := ev.walkPricer(q)
	for v := range lookup.DBCOf {
		lookup.DBCOf[v] = -1
		lookup.Offset[v] = -1
	}

	var best *Placement
	bestCost := int64(math.MaxInt64)
	p := NewEmpty(q)
	for it := 0; it < cfg.Iterations; it++ {
		randomPlacementLookup(p, lookup, rng, vars, cfg.Capacity)
		c := price.cost(lookup, bestCost)
		// c is exact whenever it is below bestCost (bounded evaluation),
		// so comparing raw shift counts here is comparing scalarized
		// costs: every objective is strictly monotone in shifts.
		if best == nil || c < bestCost {
			best, bestCost = p.Clone(), c
		}
	}
	return best, bestCost, nil
}

// randomPlacementLookup is randomPlacementInto maintaining the inverse
// lookup alongside: assignments are recorded as they are drawn and
// offsets are patched inside the shuffle swaps, replacing the separate
// O(numVars) fillLookup pass per iteration. The PRNG consumption — and
// therefore the placement sequence — is identical to randomPlacement's.
// Only the placed variables' lookup entries are written; the caller's
// lookup must start out all -1 and be reserved for this loop (unplaced
// variables are never read by the evaluators because they are never
// accessed).
func randomPlacementLookup(p *Placement, l *Lookup, rng *rand.Rand, vars []int, capacity int) {
	q := len(p.DBC)
	for d := range p.DBC {
		p.DBC[d] = p.DBC[d][:0]
	}
	for _, v := range vars {
		d := rng.Intn(q)
		if capacity > 0 {
			for tries := 0; len(p.DBC[d]) >= capacity && tries < q; tries++ {
				d = (d + 1) % q
			}
		}
		l.DBCOf[v] = d
		l.Offset[v] = len(p.DBC[d])
		p.DBC[d] = append(p.DBC[d], v)
	}
	for _, d := range p.DBC {
		rng.Shuffle(len(d), func(i, j int) {
			d[i], d[j] = d[j], d[i]
			l.Offset[d[i]] = i
			l.Offset[d[j]] = j
		})
	}
}
