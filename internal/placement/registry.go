package placement

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/trace"
)

// A Strategy is a pluggable placement algorithm. The six paper strategies
// are registered at package init; additional strategies can be plugged in
// with Register (or racetrack.RegisterStrategy from the public API)
// without touching the dispatch code — every driver that resolves
// strategies by name (Place, the eval harness, the CLI tools) picks them
// up automatically.
type Strategy interface {
	// Name returns the identifier the strategy is dispatched under.
	Name() string
	// Place computes a placement of the sequence's variables into q DBCs
	// and returns it together with its shift cost under the paper's cost
	// model.
	Place(s *trace.Sequence, q int, opts Options) (*Placement, int64, error)
}

// strategyFunc adapts a plain function to the Strategy interface.
type strategyFunc struct {
	name string
	fn   func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error)
}

func (s strategyFunc) Name() string { return s.name }
func (s strategyFunc) Place(seq *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	return s.fn(seq, q, opts)
}

// NewStrategy wraps fn as a named Strategy. A nil fn yields a nil
// Strategy, which Register rejects.
func NewStrategy(name string, fn func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error)) Strategy {
	if fn == nil {
		return nil
	}
	return strategyFunc{name: name, fn: fn}
}

// A Registry is an instance-scoped strategy table. Every Registry starts
// seeded with the built-in strategies (the six paper strategies plus the
// DMA-2opt and GA-2opt extensions) and grows by Register; two registries
// can hold different strategies under the same name without interfering,
// which is what lets multiple embedding sessions (racetrack.Lab) coexist
// in one process. Reads (Lookup, per-job dispatch in the experiment
// engine) vastly outnumber writes (registration, typically at session
// construction), hence the RWMutex.
type Registry struct {
	mu    sync.RWMutex
	byID  map[StrategyID]Strategy
	order []StrategyID // registration order, builtins first
}

// NewRegistry returns a fresh registry seeded with the built-in
// strategies. Seeding is a construction step that can fail — a
// mis-declared builtin list (duplicate or empty names) surfaces as an
// error for the embedder to report, never as a panic.
func NewRegistry() (*Registry, error) {
	r := &Registry{byID: map[StrategyID]Strategy{}}
	if err := seedRegistry(r, builtinStrategies()); err != nil {
		return nil, err
	}
	return r, nil
}

// seedRegistry registers the given strategies into r, wrapping the first
// failure as a seeding error.
func seedRegistry(r *Registry, sts []Strategy) error {
	for _, st := range sts {
		if err := r.Register(st); err != nil {
			return fmt.Errorf("placement: seeding builtin strategies: %w", err)
		}
	}
	return nil
}

// Register adds a strategy to the registry. It fails on an empty name and
// on duplicate registration; names cannot be replaced within one registry
// (re-registering would silently change every driver that resolves the
// name there). Use a second Registry to shadow a name.
func (r *Registry) Register(st Strategy) error {
	if st == nil {
		return fmt.Errorf("placement: Register called with nil strategy")
	}
	id := StrategyID(st.Name())
	if id == "" {
		return fmt.Errorf("placement: Register called with empty strategy name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[id]; dup {
		return fmt.Errorf("placement: strategy %q already registered", id)
	}
	r.byID[id] = st
	r.order = append(r.order, id)
	return nil
}

// Lookup resolves a strategy by name.
func (r *Registry) Lookup(id StrategyID) (Strategy, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.byID[id]
	return st, ok
}

// Place runs the named strategy of this registry on the sequence with q
// DBCs and returns the resulting placement and its shift cost.
func (r *Registry) Place(id StrategyID, s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	st, ok := r.Lookup(id)
	if !ok {
		return nil, 0, fmt.Errorf("placement: unknown strategy %q", id)
	}
	return st.Place(s, q, opts)
}

// Registered lists every strategy name of this registry: the six paper
// strategies first (in the paper's presentation order), then plugged-in
// strategies sorted by name (registration order of plugins is otherwise
// load-order dependent and would make experiment output unstable).
func (r *Registry) Registered() []StrategyID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	builtin := AllStrategies()
	isBuiltin := map[StrategyID]bool{}
	for _, id := range builtin {
		isBuiltin[id] = true
	}
	var plugins []StrategyID
	for _, id := range r.order {
		if !isBuiltin[id] {
			plugins = append(plugins, id)
		}
	}
	sort.Slice(plugins, func(i, j int) bool { return plugins[i] < plugins[j] })
	return append(builtin, plugins...)
}

// defaultRegistry lazily builds the process-wide registry behind the
// package-level functions — the table the legacy flat API and the
// internal drivers resolve against when no instance registry is
// supplied. Construction is deferred (and its error retained) so a
// seeding failure reaches callers as an error instead of an init-time
// panic.
var defaultRegistry = sync.OnceValues(NewRegistry)

// DefaultRegistry exposes the process-wide registry (the one the
// package-level Register/LookupStrategy/Registered operate on), so the
// public API's default session can share it. The error reports a failed
// builtin seed and is stable across calls.
func DefaultRegistry() (*Registry, error) { return defaultRegistry() }

// Register adds a strategy to the process-wide registry.
func Register(st Strategy) error {
	reg, err := DefaultRegistry()
	if err != nil {
		return err
	}
	return reg.Register(st)
}

// LookupStrategy resolves a strategy by name in the process-wide
// registry; an unseedable registry resolves nothing.
func LookupStrategy(id StrategyID) (Strategy, bool) {
	reg, err := DefaultRegistry()
	if err != nil {
		return nil, false
	}
	return reg.Lookup(id)
}

// Registered lists every strategy name of the process-wide registry
// (nil if the registry failed to seed).
func Registered() []StrategyID {
	reg, err := DefaultRegistry()
	if err != nil {
		return nil
	}
	return reg.Registered()
}

// The six paper strategies, behind the Strategy interface.

// afdOFU is the state-of-the-art baseline: AFD inter-DBC distribution with
// order-of-first-use intra-DBC placement.
type afdOFU struct{}

func (afdOFU) Name() string { return string(StrategyAFDOFU) }

// construct computes the placement without pricing it — the portfolio
// race prices it with bounded evaluation instead (portfolio.go).
func (afdOFU) construct(s *trace.Sequence, q int, opts Options) (*Placement, error) {
	a := trace.Analyze(s)
	p, err := AFD(a, q)
	if err != nil {
		return nil, err
	}
	return ApplyIntra(p, 0, q, OFU, s, a), nil
}

func (h afdOFU) Place(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	return placeConstructed(h, s, q, opts)
}

// dma is the paper's heuristic (Algorithm 1) paired with an intra-DBC
// heuristic on the non-disjoint DBCs.
type dma struct {
	id    StrategyID
	intra IntraHeuristic
}

func (d dma) Name() string { return string(d.id) }

// construct computes the placement without pricing it — the portfolio
// race prices it with bounded evaluation instead (portfolio.go).
func (d dma) construct(s *trace.Sequence, q int, opts Options) (*Placement, error) {
	a := trace.Analyze(s)
	r, err := DMA(a, q, opts.Capacity)
	if err != nil {
		return nil, err
	}
	// Algorithm 1 lines 22-23: intra-DBC optimization only on the
	// non-disjoint DBCs; the disjoint DBCs keep access order.
	return ApplyIntra(r.Placement, r.DisjointDBCs, q, d.intra, s, a), nil
}

func (d dma) Place(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	return placeConstructed(d, s, q, opts)
}

// placeConstructed runs a constructive heuristic and prices its placement
// through the options' evaluator.
func placeConstructed(h constructive, s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	p, err := h.construct(s, q, opts)
	if err != nil {
		return nil, 0, err
	}
	ev, err := opts.Evaluator(s, q)
	if err != nil {
		return p, 0, err
	}
	c, err := ev.Cost(p)
	return p, c, err
}

// ga is the paper's µ+λ genetic algorithm; with memetic == true it is the
// "GA-2opt" variant with the delta-evaluated local-improvement mutation
// enabled (GAConfig.ImproveWeight).
type ga struct {
	id      StrategyID
	memetic bool
}

func (g ga) Name() string { return string(g.id) }

func (g ga) Place(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	cfg := opts.GA
	if cfg.Mu == 0 {
		island := cfg
		cfg = DefaultGAConfig()
		// The island topology (and its progress hook) rides along even
		// when the search budget itself is defaulted — WithIslands on a
		// session with an otherwise zero GA config must still fan out.
		cfg.Islands = island.Islands
		cfg.MigrationEvery = island.MigrationEvery
		cfg.Elites = island.Elites
		cfg.IslandProgress = island.IslandProgress
		cfg.Workers = island.Workers
	}
	cfg.Capacity = opts.Capacity
	// Fitness and the memetic polish follow the options' objective.
	ev, err := opts.Evaluator(s, q)
	if err != nil {
		return nil, 0, err
	}
	if g.memetic && cfg.ImproveWeight == 0 {
		// Same order of magnitude as the paper's permute skew: rare
		// enough to keep breeding cheap, frequent enough to polish.
		cfg.ImproveWeight = 3
	}
	if len(cfg.Seeds) == 0 && !opts.DisableGASeeding {
		seeds, err := heuristicSeeds(ev, q, opts.Capacity)
		if err != nil {
			return nil, 0, err
		}
		cfg.Seeds = seeds
	}
	res, err := runGA(opts.ctx(), ev, q, cfg)
	if err != nil {
		// A cancelled search still carries its best-so-far placement;
		// surface it alongside the context error so deadline-bounded
		// callers can keep the partial result.
		if res != nil && res.Best != nil {
			return res.Best, res.Cost, err
		}
		return nil, 0, err
	}
	return res.Best, res.Cost, nil
}

// StrategyGAMemetic is the memetic GA extension strategy ("GA-2opt"). Like
// DMA-2opt it is not one of the paper's six evaluated strategies; it is
// seeded into every registry alongside them so every by-name driver can
// reach it.
const StrategyGAMemetic StrategyID = "GA-2opt"

// StrategyDMATwoOpt is the two-opt-refined DMA extension strategy
// ("DMA-2opt"): DMA inter-DBC placement, ShiftsReduce + delta-evaluated
// 2-opt local search on the non-disjoint DBCs. Never worse than DMA-SR.
const StrategyDMATwoOpt StrategyID = "DMA-2opt"

// rw is the random-walk search baseline.
type rw struct{}

func (rw) Name() string { return string(StrategyRW) }

func (rw) Place(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	cfg := opts.RW
	if cfg.Iterations == 0 {
		cfg = DefaultRWConfig()
	}
	cfg.Capacity = opts.Capacity
	ev, err := opts.Evaluator(s, q)
	if err != nil {
		return nil, 0, err
	}
	return randomWalk(ev, q, cfg)
}

// builtinStrategies lists the strategies every fresh registry is seeded
// with: the six paper strategies in presentation order, then the two
// extension strategies. Registering them per instance (instead of a
// process-global init) is what makes instance registries self-contained
// — and removes the init-time panic the extension registration used to
// ride on.
func builtinStrategies() []Strategy {
	return []Strategy{
		afdOFU{},
		dma{id: StrategyDMAOFU, intra: OFU},
		dma{id: StrategyDMAChen, intra: Chen},
		dma{id: StrategyDMASR, intra: ShiftsReduce},
		ga{id: StrategyGA},
		rw{},
		ga{id: StrategyGAMemetic, memetic: true},
		NewStrategy(string(StrategyDMATwoOpt), PlaceDMATwoOpt),
	}
}
