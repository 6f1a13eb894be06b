package placement

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/trace"
)

// CostKernel is the transition-matrix full-cost evaluator: a compressed,
// placement-independent summary of one access sequence from which the
// exact shift cost of *any* placement is computed in O(nnz) instead of
// replaying the O(accesses) stream (see DESIGN.md §8).
//
// The per-DBC transition counts that define the cost,
//
//	cost = Σ_DBC Σ freq(u,v) · |off(u) − off(v)|,
//
// depend on the DBC grouping: the restricted subsequence of a DBC skips
// the accesses of every other DBC, so which pairs (u, v) become
// transitions changes with the partition. The kernel therefore does not
// store a flat pair matrix; it stores *transition stencils*. For each
// access to a variable v, the predecessor that the cost model charges
// against is the most recently accessed variable in v's DBC — and the
// only candidates for that role are the distinct variables touched since
// v's own previous access (anything older is superseded by v itself,
// which costs zero). The stencil of an access is exactly that candidate
// list, most recent first; accesses with identical stencils — every
// iteration of a loop body, in practice — collapse into one entry with a
// multiplicity. Evaluating a placement walks each stencil until the
// first candidate sharing v's DBC:
//
//	for each stencil (v, [u1 u2 ...], w):
//	        u* := first ui with DBC(ui) == DBC(v)   // early exit
//	        cost += w · |off(v) − off(u*)|          // no u*: cold or self, free
//
// which is exact for every partition and every intra-DBC order. All
// arithmetic is int64, so kernel costs are bit-identical to the replay
// oracle in cost.go (TestKernelMatchesReplay*, FuzzKernelParity).
//
// A kernel is built once per sequence — O(accesses + Σ stencil lengths)
// with the only allocations at construction — and is immutable
// afterwards, hence safe for concurrent use from any number of
// evaluation goroutines. Cost is allocation-free; callers own the Lookup
// scratch. The single-port cost model only: multi-port geometries go
// through PortModel (Evaluator picks between the two).
type CostKernel struct {
	seq      *trace.Sequence
	numVars  int
	accesses int

	// Stencil table in CSR form: stencil i charges variable tvar[i] with
	// multiplicity wgt[i] against the candidate predecessors
	// cand[start[i]:start[i+1]] (recency order).
	//
	// After construction the table is laid out var-major: the rows of
	// each charged variable are contiguous (rowLo[v]:rowHi[v]), and
	// varOrder lists the charged variables by descending total row
	// weight. The total is order-independent, so evaluation is free to
	// exploit this: full scans load a variable's DBC and offset once per
	// group, per-DBC partial costs (CostDBC, the GA's content-addressed
	// cache) read one contiguous block per member, and bounded scans
	// (CostBounded) accumulate the bulk of the cost within the first few
	// heavy groups.
	tvar  []int32
	wgt   []int64
	start []int
	cand  []int32

	varOrder     []int32
	rowLo, rowHi []int32

	// accCnt[v] counts v's accesses — the per-variable weight that lets
	// Breakdown attribute access counts per DBC and detect accessed-but-
	// unplaced variables without replaying the stream.
	accCnt []int64

	// Shared per-sequence memo for the GA's heuristic seeding: the same
	// four heuristic placements are otherwise recomputed by every GA
	// variant cell of a batch at the same DBC count. Guarded because the
	// engine evaluates cells concurrently. Held by pointer so Rebind
	// copies share one memo: seed placements contain variable indices
	// only, so they are valid for every content-equal sequence.
	seeds *seedMemo
}

type seedKey struct{ q, capacity int }

// seedMemo is the mutex-guarded heuristic-seed table shared by a kernel
// and all its rebound copies.
type seedMemo struct {
	mu sync.Mutex
	m  map[seedKey][]*Placement
}

// cachedSeeds returns the memoized heuristic seeds for (q, capacity),
// computing and retaining them on first use. The cached placements are
// shared read-only (the GA clones every seed before touching it).
func (k *CostKernel) cachedSeeds(q, capacity int, compute func() ([]*Placement, error)) ([]*Placement, error) {
	k.seeds.mu.Lock()
	defer k.seeds.mu.Unlock()
	key := seedKey{q: q, capacity: capacity}
	if s, ok := k.seeds.m[key]; ok {
		return s, nil
	}
	s, err := compute()
	if err != nil {
		return nil, err
	}
	if k.seeds.m == nil {
		k.seeds.m = make(map[seedKey][]*Placement)
	}
	k.seeds.m[key] = s
	return s, nil
}

// NewCostKernel summarizes the sequence into a cost kernel. One pass over
// the accesses maintains the distinct-variable recency list; each
// access's stencil is the prefix of that list down to the variable's own
// previous occurrence, deduplicated across accesses.
func NewCostKernel(s *trace.Sequence) *CostKernel {
	return buildCostKernel(s, -1)
}

// NewCostKernelStream builds a kernel from an access stream without ever
// materializing the sequence: the construction pass is inherently
// single-pass (the recency list and stencil dedup only look backwards),
// so its working set is the stencil table plus O(numVars) bookkeeping —
// for loop-structured traces, proportional to the distinct variables and
// window shapes, not the stream length (see DESIGN.md §12). The reader
// is drained to io.EOF; any other reader error aborts the build.
//
// A streamed kernel has no bound sequence: Sequence returns nil, Rebind
// always returns nil, and Breakdown reports unplaced variables by index.
// Cost, CostBounded, CostDBC, Evaluate and NewDeltaEvaluatorFromKernel
// are exactly as for NewCostKernel — the two constructions are
// bit-identical on equal streams (TestStreamKernelParity).
func NewCostKernelStream(numVars int, r trace.AccessReader) (*CostKernel, error) {
	if numVars < 0 {
		return nil, fmt.Errorf("placement: stream kernel: negative numVars %d", numVars)
	}
	b := newKernelBuilder(numVars, -1)
	for {
		a, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("placement: stream kernel: reading access %d: %w", b.k.accesses, err)
		}
		if a.Var < 0 || a.Var >= numVars {
			return nil, fmt.Errorf("placement: stream kernel: access %d to variable %d outside universe [0,%d)",
				b.k.accesses, a.Var, numVars)
		}
		b.add(a)
	}
	return b.finish(), nil
}

// buildCostKernel is NewCostKernel with an optional candidate budget
// (candBudget < 0 means unlimited): once the table's candidate total
// exceeds the budget the build aborts and returns nil. Callers that
// would fall back to replay evaluation anyway for tables denser than
// the stream (RandomWalk without a batch-shared kernel) use the budget
// to cap the wasted build at the replay path's own cost.
func buildCostKernel(s *trace.Sequence, candBudget int) *CostKernel {
	b := newKernelBuilder(s.NumVars(), candBudget)
	for _, a := range s.Accesses {
		if !b.add(a) {
			return nil // table denser than the caller will use
		}
	}
	k := b.finish()
	k.seq = s
	return k
}

// kernelBuilder is the incremental core of kernel construction: add
// consumes one access at a time, finish lays the table out. Both the
// in-RAM and the streaming constructors drive it, so the two paths
// cannot diverge.
type kernelBuilder struct {
	k          *CostKernel
	candBudget int

	// Doubly linked recency list over the distinct variables seen so far;
	// head is the most recently accessed.
	prev, next []int32
	seen       []bool
	head       int32

	// Dedup machinery. The fast path exploits access locality: a loop
	// iteration reproduces the previous iteration's window exactly, so
	// each variable remembers its last stencil row and the walk compares
	// against it in place — steady-state loops never touch the hash
	// table. Novel windows go through an FNV-hashed index with explicit
	// collision verification.
	lastSten []int32
	index    map[uint64][]int32 // window hash -> candidate rows
	win      []int32            // current access's candidate window
}

func newKernelBuilder(numVars, candBudget int) *kernelBuilder {
	b := &kernelBuilder{
		k: &CostKernel{
			numVars: numVars,
			start:   make([]int, 1),
			accCnt:  make([]int64, numVars),
			seeds:   &seedMemo{},
		},
		candBudget: candBudget,
		prev:       make([]int32, numVars),
		next:       make([]int32, numVars),
		seen:       make([]bool, numVars),
		head:       -1,
		lastSten:   make([]int32, numVars),
		index:      make(map[uint64][]int32),
		win:        make([]int32, 0, 64),
	}
	for i := range b.lastSten {
		b.lastSten[i] = -1
	}
	return b
}

// add folds one access into the table. It returns false only when the
// candidate budget is exhausted; the builder must then be discarded.
func (b *kernelBuilder) add(a trace.Access) bool {
	k := b.k
	v := int32(a.Var)
	k.accesses++
	k.accCnt[v]++
	// Candidates: recency-list prefix strictly newer than v's own
	// previous access. For a first access the walk covers the whole
	// list (every distinct variable so far is a candidate). The walk
	// doubles as the comparison against v's previous stencil.
	ls := b.lastSten[v]
	same := ls >= 0
	var lo, hi int
	if same {
		lo, hi = k.start[ls], k.start[ls+1]
	}
	win := b.win[:0]
	for u := b.head; u >= 0 && u != v; u = b.next[u] {
		if same && (lo >= hi || k.cand[lo] != u) {
			same = false
		}
		lo++
		win = append(win, u)
	}
	b.win = win
	switch {
	case same && lo == hi:
		k.wgt[ls]++
	default:
		h := uint64(14695981039346656037)
		h = (h ^ uint64(uint32(v))) * 1099511628211
		for _, u := range win {
			h = (h ^ uint64(uint32(u))) * 1099511628211
		}
		row := int32(-1)
		for _, r := range b.index[h] {
			if k.tvar[r] == v && k.sameWindow(r, win) {
				row = r
				break
			}
		}
		if row >= 0 {
			k.wgt[row]++
		} else {
			row = int32(len(k.tvar))
			b.index[h] = append(b.index[h], row)
			k.tvar = append(k.tvar, v)
			k.wgt = append(k.wgt, 1)
			k.cand = append(k.cand, win...)
			k.start = append(k.start, len(k.cand))
			if b.candBudget >= 0 && len(k.cand) > b.candBudget {
				return false
			}
		}
		b.lastSten[v] = row
	}

	// Move v to the front of the recency list.
	if b.seen[v] {
		p, nx := b.prev[v], b.next[v]
		if p >= 0 {
			b.next[p] = nx
		} else {
			b.head = nx
		}
		if nx >= 0 {
			b.prev[nx] = p
		}
	}
	b.seen[v] = true
	b.next[v] = b.head
	b.prev[v] = -1
	if b.head >= 0 {
		b.prev[b.head] = v
	}
	b.head = v
	return true
}

// finish lays the accumulated table out var-major and returns the
// kernel. The builder must not be reused afterwards.
func (b *kernelBuilder) finish() *CostKernel {
	b.k.layoutVarMajor()
	return b.k
}

// layoutVarMajor permutes the stencil table into the var-major,
// heaviest-group-first layout described on the struct (stable within a
// variable's rows, so the table is deterministic).
func (k *CostKernel) layoutVarMajor() {
	k.rowLo = make([]int32, k.numVars)
	k.rowHi = make([]int32, k.numVars)
	if len(k.tvar) == 0 {
		return
	}
	wsum := make([]int64, k.numVars)
	perVar := make([][]int32, k.numVars)
	for i, v := range k.tvar {
		wsum[v] += k.wgt[i]
		perVar[v] = append(perVar[v], int32(i))
	}
	for v := 0; v < k.numVars; v++ {
		if len(perVar[v]) > 0 {
			k.varOrder = append(k.varOrder, int32(v))
		}
	}
	sort.SliceStable(k.varOrder, func(a, b int) bool {
		return wsum[k.varOrder[a]] > wsum[k.varOrder[b]]
	})

	n := len(k.tvar)
	tvar := make([]int32, 0, n)
	wgt := make([]int64, 0, n)
	start := make([]int, 1, n+1)
	cand := make([]int32, 0, len(k.cand))
	for _, v := range k.varOrder {
		k.rowLo[v] = int32(len(tvar))
		for _, r := range perVar[v] {
			tvar = append(tvar, v)
			wgt = append(wgt, k.wgt[r])
			cand = append(cand, k.cand[k.start[r]:k.start[r+1]]...)
			start = append(start, len(cand))
		}
		k.rowHi[v] = int32(len(tvar))
	}
	k.tvar, k.wgt, k.start, k.cand = tvar, wgt, start, cand
}

// sameWindow reports whether stencil row r's candidate list equals win.
func (k *CostKernel) sameWindow(r int32, win []int32) bool {
	lo, hi := k.start[r], k.start[r+1]
	if hi-lo != len(win) {
		return false
	}
	for i, u := range win {
		if k.cand[lo+i] != u {
			return false
		}
	}
	return true
}

// Sequence returns the sequence this kernel summarizes, or nil for a
// kernel built from a stream (NewCostKernelStream). Callers sharing
// kernels (Options.Kernel, NewEvaluator) key on pointer identity: a
// kernel is only ever applied to the exact sequence it was built from.
func (k *CostKernel) Sequence() *trace.Sequence { return k.seq }

// varName renders v for diagnostics; streamed kernels have no name table.
func (k *CostKernel) varName(v int) string {
	if k.seq != nil {
		return k.seq.Name(v)
	}
	return fmt.Sprintf("v%d", v)
}

// NumVars returns the size of the variable universe the kernel covers.
func (k *CostKernel) NumVars() int { return k.numVars }

// Accesses returns the number of accesses summarized (Σ multiplicities).
func (k *CostKernel) Accesses() int { return k.accesses }

// NNZ returns the number of distinct transition stencils — the table
// size every Cost call is linear in.
func (k *CostKernel) NNZ() int { return len(k.tvar) }

// Candidates returns the total candidate-list length across stencils,
// the kernel's memory footprint and its worst-case evaluation bound.
func (k *CostKernel) Candidates() int { return len(k.cand) }

// Cost evaluates the exact shift cost of the placement described by the
// lookup: every stencil walks its candidates until the first same-DBC
// hit (the realized predecessor) or exhaustion (a cold or self access,
// free). The lookup must cover every accessed variable (same
// precondition as the replay path); unplaced entries are (-1, -1).
// Allocation-free and safe to call concurrently with distinct lookups.
//
//rtm:hotpath
func (k *CostKernel) Cost(l *Lookup) int64 { return k.CostBounded(l, math.MaxInt64) }

// varCost sums the contributions of one charged variable's row group.
// The table slices are hoisted into locals: dbc/off may alias arbitrary
// memory as far as the compiler knows, and keeping the loads explicit
// keeps the inner scan tight.
//
//rtm:hotpath
func (k *CostKernel) varCost(dbc, off []int, v, dv int) int64 {
	start, cand, wgt := k.start, k.cand, k.wgt
	offv := off[v]
	var total int64
	for i := k.rowLo[v]; i < k.rowHi[v]; i++ {
		hi := start[i+1]
		for j := start[i]; j < hi; j++ {
			u := cand[j]
			if dbc[u] != dv {
				continue
			}
			d := offv - off[u]
			if d < 0 {
				d = -d
			}
			total += wgt[i] * int64(d)
			break
		}
	}
	return total
}

// CostBounded is Cost with an abort threshold: the running total is a
// sum of non-negative contributions, so once it reaches bound the final
// cost provably does too and the scan stops. The return value is exact
// when it is below bound and otherwise only a certificate that
// cost >= bound. Best-of-N searches (random walk) use it to discard
// losing placements after the few heaviest variable groups — varOrder
// is weight-descending precisely so the partial sum grows fastest up
// front.
//
//rtm:hotpath
func (k *CostKernel) CostBounded(l *Lookup, bound int64) int64 {
	dbc, off := l.DBCOf, l.Offset
	var total int64
	for _, v := range k.varOrder {
		dv := dbc[v]
		if dv < 0 {
			continue
		}
		total += k.varCost(dbc, off, int(v), dv)
		if total >= bound {
			return total
		}
	}
	return total
}

// CostDBC returns one DBC's contribution to the full cost: the row
// groups of the DBC's member variables, scanned against the full
// lookup. A candidate hits only when it shares the member's DBC, so the
// result depends exclusively on the DBC's own ordered content — which
// is what makes it safe to memoize by content (the GA's DBC cost cache)
// — and the per-DBC results sum to Cost over any placement.
//
//rtm:hotpath
func (k *CostKernel) CostDBC(l *Lookup, content []int) int64 {
	dbc, off := l.DBCOf, l.Offset
	var total int64
	for _, v := range content {
		total += k.varCost(dbc, off, v, dbc[v])
	}
	return total
}

// Evaluate is the validating convenience form of Cost: it inverts the
// placement (allocating a fresh Lookup) and evaluates it. Hot paths
// reuse a caller-owned Lookup with fillLookup and call Cost directly.
func (k *CostKernel) Evaluate(p *Placement) (int64, error) {
	l, err := p.BuildLookup(k.numVars)
	if err != nil {
		return 0, err
	}
	return k.Cost(l), nil
}

// Breakdown attributes the placement's cost and access counts per DBC —
// the kernel equivalent of ShiftCostBreakdown, bit-identical per DBC
// (each stencil group contributes to the charged variable's DBC, exactly
// the DBC the replay attributes the transition to). Unlike Cost it
// validates coverage: an accessed-but-unplaced variable is an error, as
// on the replay path.
func (k *CostKernel) Breakdown(p *Placement) (*CostBreakdown, error) {
	l, err := p.BuildLookup(k.numVars)
	if err != nil {
		return nil, err
	}
	q := len(p.DBC)
	b := &CostBreakdown{PerDBC: make([]int64, q), Accesses: make([]int64, q)}
	for v := 0; v < k.numVars; v++ {
		if k.accCnt[v] == 0 {
			continue
		}
		d := l.DBCOf[v]
		if d < 0 || d >= q {
			return nil, fmt.Errorf("placement: accesses to unplaced variable %s", k.varName(v))
		}
		b.Accesses[d] += k.accCnt[v]
		c := k.varCost(l.DBCOf, l.Offset, v, d)
		b.PerDBC[d] += c
		b.Total += c
	}
	return b, nil
}

// Rebind returns a kernel bound to s, sharing this kernel's immutable
// stencil tables: content-addressed caches hand out one kernel for every
// content-equal sequence, but the strategy plumbing validates kernels by
// sequence pointer (Options.Kernel, NewEvaluator), so a cache hit
// under a different pointer must be re-pointed before it is usable.
// Returns k itself when s is already the bound sequence, and nil when s
// is not content-equal (the caller must build a fresh kernel). The
// rebound kernel shares the tables read-only and the heuristic-seed
// memo (seed placements hold variable indices only, valid for any
// content-equal sequence), so GA seeding stays memoized across rebinds.
func (k *CostKernel) Rebind(s *trace.Sequence) *CostKernel {
	if k.seq == s {
		return k
	}
	if k.seq == nil || !k.seq.ContentEqual(s) {
		// Streamed kernels (seq == nil) cannot prove content equality:
		// the stream is gone. Callers must build afresh.
		return nil
	}
	return &CostKernel{
		seq:      s,
		numVars:  k.numVars,
		accesses: k.accesses,
		tvar:     k.tvar,
		wgt:      k.wgt,
		start:    k.start,
		cand:     k.cand,
		varOrder: k.varOrder,
		rowLo:    k.rowLo,
		rowHi:    k.rowHi,
		accCnt:   k.accCnt,
		seeds:    k.seeds,
	}
}

// NewDeltaEvaluatorFromKernel derives the incremental intra-DBC
// evaluator of delta.go for the DBC content `order` from an existing
// kernel, in O(nnz) instead of the O(accesses) replay of
// NewDeltaEvaluator. The restricted transition multiset of a member set
// M falls straight out of the stencils: an access stencil (v, [u...], w)
// with v ∈ M realizes the transition (u*, v) for the first u* ∈ M — no
// candidate in M means the predecessor was v itself (a free
// self-transition, excluded from the CSR exactly as the replay path
// excludes it). The resulting evaluator is move-for-move identical to a
// replay-built one (TestDeltaFromKernelParity).
func NewDeltaEvaluatorFromKernel(k *CostKernel, order []int) *DeltaEvaluator {
	e := newDeltaShell(k.numVars, order)
	var pairs []wpair
	for i, v := range k.tvar {
		if e.pos[v] < 0 {
			continue
		}
		e.accesses += int(k.wgt[i])
		for j := k.start[i]; j < k.start[i+1]; j++ {
			u := k.cand[j]
			if e.pos[u] < 0 {
				continue
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			pairs = append(pairs, wpair{u: a, v: b, w: k.wgt[i]})
			break
		}
	}
	e.initCSR(pairs)
	return e
}

// String is a compact diagnostic summary for logs and tests.
func (k *CostKernel) String() string {
	return fmt.Sprintf("kernel{vars=%d accesses=%d nnz=%d cand=%d}",
		k.numVars, k.accesses, len(k.tvar), len(k.cand))
}
