package placement

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/trace"
)

// loopSeq repeats a body over the first width variables: the stencil
// table collapses to one row per variable, far below half the stream.
func loopSeq(width, iterations int) *trace.Sequence {
	vars := make([]int, 0, width*iterations)
	for it := 0; it < iterations; it++ {
		for v := 0; v < width; v++ {
			vars = append(vars, v)
		}
	}
	return trace.NewSequence(vars...)
}

// TestEvaluatorMatchesOracles pins every cost path the evaluator can
// choose to the oracles: Cost and Breakdown equal ShiftCostBreakdown (or
// EngineCost under ports), CostBounded is exact below its bound and a
// certificate at or above it, and the GA fitness and random-walk pricers
// it hands out agree too. Each case also checks which path was chosen.
func TestEvaluatorMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dense := randSeq(rng, 14, 300)
	loop := loopSeq(9, 60)
	pm, err := NewPortModel(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		s          *trace.Sequence
		kern       *CostKernel
		port       *PortModel
		wantKernel bool // a kernel prices one-off calls
		walkKernel bool // the random walk prices through the kernel
	}{
		{name: "shared kernel", s: dense, kern: NewCostKernel(dense), wantKernel: true},
		{name: "foreign kernel ignored", s: dense, kern: NewCostKernel(loop)},
		{name: "no kernel dense replay", s: dense},
		{name: "no kernel loop-compressed", s: loop, walkKernel: true},
		{name: "ports>1", s: dense, kern: NewCostKernel(dense), port: pm, wantKernel: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev := NewEvaluator(tc.s, tc.kern, tc.port)
			if got := ev.knownKernel() != nil; got != tc.wantKernel {
				t.Fatalf("known kernel = %v, want %v", got, tc.wantKernel)
			}
			if got := ev.walkPricer(3).kern != nil; got != tc.walkKernel {
				t.Fatalf("random walk uses the kernel = %v, want %v", got, tc.walkKernel)
			}
			fit := ev.fitness(3)
			walk := ev.walkPricer(3)
			for trial := 0; trial < 12; trial++ {
				p := randFullPlacement(rng, tc.s.NumVars(), 3)
				var want int64
				if tc.port != nil {
					if want, err = EngineCost(tc.s, p, tc.port.Domains(), tc.port.Ports()); err != nil {
						t.Fatal(err)
					}
				} else {
					ref, err := ShiftCostBreakdown(tc.s, p)
					if err != nil {
						t.Fatal(err)
					}
					want = ref.Total
					b, err := ev.Breakdown(p)
					if err != nil {
						t.Fatal(err)
					}
					for d := range ref.PerDBC {
						if b.PerDBC[d] != ref.PerDBC[d] || b.Accesses[d] != ref.Accesses[d] {
							t.Fatalf("DBC %d: breakdown (%d, %d), oracle (%d, %d)",
								d, b.PerDBC[d], b.Accesses[d], ref.PerDBC[d], ref.Accesses[d])
						}
					}
				}
				b, err := ev.Breakdown(p)
				if err != nil {
					t.Fatal(err)
				}
				var sum int64
				for _, c := range b.PerDBC {
					sum += c
				}
				if b.Total != want || sum != want {
					t.Fatalf("breakdown total %d (per-DBC sum %d), oracle %d", b.Total, sum, want)
				}
				if c, err := ev.Cost(p); err != nil || c != want {
					t.Fatalf("Cost %d (err %v), oracle %d", c, err, want)
				}
				if c := fit.cost(p); c != want {
					t.Fatalf("GA fitness %d, oracle %d", c, want)
				}
				l, err := p.BuildLookup(tc.s.NumVars())
				if err != nil {
					t.Fatal(err)
				}
				for _, bound := range []int64{want + 1, want, want / 2} {
					c, err := ev.CostBounded(p, bound)
					if err != nil {
						t.Fatal(err)
					}
					wc := walk.cost(l, bound)
					if bound > want && (c != want || wc != want) {
						t.Fatalf("bound %d above cost %d: CostBounded %d, walk %d", bound, want, c, wc)
					}
					if bound <= want && (c < bound || wc < bound) {
						t.Fatalf("bound %d at or below cost %d: CostBounded %d, walk %d", bound, want, c, wc)
					}
				}
			}
			// A placement missing an accessed variable is an error for
			// the validating Breakdown on every path.
			gone := tc.s.Accesses[0].Var
			missing := NewEmpty(3)
			for v := 0; v < tc.s.NumVars(); v++ {
				if v != gone {
					missing.DBC[v%3] = append(missing.DBC[v%3], v)
				}
			}
			if _, err := ev.Breakdown(missing); err == nil {
				t.Fatal("breakdown accepted a placement missing an accessed variable")
			}
		})
	}
}

// TestEvaluatorImproveNeverWorsens pins the polish contract: the
// single-port Improve never raises the single-port cost, the multi-port
// Improve never scores worse on the device than the single-port polish
// replayed there, and neither touches its input.
func TestEvaluatorImproveNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pm, err := NewPortModel(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	one := func(order []int) *Placement { return &Placement{DBC: [][]int{order}} }
	for trial := 0; trial < 20; trial++ {
		s := randSeq(rng, 4+rng.Intn(10), 40+rng.Intn(120))
		order := rng.Perm(s.NumVars())
		in := append([]int(nil), order...)
		single, multi := NewEvaluator(s, nil, nil), NewEvaluator(s, nil, pm)
		polished, ported := single.Improve(in), multi.Improve(in)
		for i := range in {
			if in[i] != order[i] {
				t.Fatalf("trial %d: Improve modified its input", trial)
			}
		}
		before, _ := single.Cost(one(order))
		after, _ := single.Cost(one(polished))
		if after > before {
			t.Fatalf("trial %d: single-port polish worsened %d -> %d", trial, before, after)
		}
		proxy, _ := multi.Cost(one(polished))
		device, _ := multi.Cost(one(ported))
		if device > proxy {
			t.Fatalf("trial %d: port polish %d worse than the single-port polish on the device %d", trial, device, proxy)
		}
	}
}

// TestEvaluatorConcurrentKernel shares one evaluator across goroutines,
// as island and portfolio workers do: the lazy kernel is built once and
// every pricing call agrees with the oracle.
func TestEvaluatorConcurrentKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s := randSeq(rng, 12, 200)
	p := randFullPlacement(rng, 12, 3)
	want, err := ShiftCost(s, p)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(s, nil, nil)
	kerns := make([]*CostKernel, 4)
	var wg sync.WaitGroup
	for w := range kerns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kerns[w] = ev.kernel()
			if c, err := ev.CostBounded(p, want+1); err != nil || c != want {
				t.Errorf("worker %d: CostBounded %d (err %v), want %d", w, c, err, want)
			}
			if c := ev.fitness(3).cost(p); c != want {
				t.Errorf("worker %d: fitness %d, want %d", w, c, want)
			}
		}()
	}
	wg.Wait()
	for _, k := range kerns[1:] {
		if k != kerns[0] {
			t.Fatal("concurrent Kernel calls built more than one kernel")
		}
	}
}
