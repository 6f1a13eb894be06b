package placement

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

func TestLookupUnknownStrategy(t *testing.T) {
	if _, ok := LookupStrategy("no-such-strategy"); ok {
		t.Fatal("unknown strategy resolved")
	}
	s := mustSeq(t, "a b a b")
	if _, _, err := Place("no-such-strategy", s, 2, Options{}); err == nil {
		t.Fatal("Place accepted unknown strategy")
	} else if !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	dummy := func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
		return NewEmpty(q), 0, nil
	}
	if err := Register(NewStrategy(string(StrategyAFDOFU), dummy)); err == nil {
		t.Fatal("duplicate registration of a builtin accepted")
	}
	if err := Register(NewStrategy("", dummy)); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
	if err := Register(NewStrategy("registry-test-nil-fn", nil)); err == nil {
		t.Fatal("nil placement function accepted")
	}
	name := "registry-test-dup"
	if err := Register(NewStrategy(name, dummy)); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if err := Register(NewStrategy(name, dummy)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// TestRegistryConcurrentAccess hammers lookups, listings and
// registrations from many goroutines; run under -race this checks the
// registry's locking.
func TestRegistryConcurrentAccess(t *testing.T) {
	dummy := func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
		return NewEmpty(q), 0, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, ok := LookupStrategy(StrategyDMASR); !ok {
					t.Error("builtin disappeared")
					return
				}
				Registered()
				if i%10 == 0 {
					if err := Register(NewStrategy(fmt.Sprintf("registry-test-conc-%d-%d", g, i), dummy)); err != nil {
						t.Errorf("register: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRegisteredOrderBuiltinsFirst(t *testing.T) {
	ids := Registered()
	if len(ids) < len(AllStrategies()) {
		t.Fatalf("registered %d < builtin %d", len(ids), len(AllStrategies()))
	}
	for i, want := range AllStrategies() {
		if ids[i] != want {
			t.Fatalf("position %d: got %s, want %s", i, ids[i], want)
		}
	}
}

// legacyPlace is a verbatim copy of the pre-registry Place switch (the
// seed's strategy.go). The golden parity test below guarantees the
// registry dispatch reproduces it exactly for all six paper strategies.
func legacyPlace(id StrategyID, s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	a := trace.Analyze(s)
	switch id {
	case StrategyAFDOFU:
		p, err := AFD(a, q)
		if err != nil {
			return nil, 0, err
		}
		p = ApplyIntra(p, 0, q, OFU, s, a)
		c, err := ShiftCost(s, p)
		return p, c, err

	case StrategyDMAOFU, StrategyDMAChen, StrategyDMASR:
		r, err := DMA(a, q, opts.Capacity)
		if err != nil {
			return nil, 0, err
		}
		var h IntraHeuristic
		switch id {
		case StrategyDMAOFU:
			h = OFU
		case StrategyDMAChen:
			h = Chen
		default:
			h = ShiftsReduce
		}
		p := ApplyIntra(r.Placement, r.DisjointDBCs, q, h, s, a)
		c, err := ShiftCost(s, p)
		return p, c, err

	case StrategyGA:
		cfg := opts.GA
		if cfg.Mu == 0 {
			cfg = DefaultGAConfig()
		}
		cfg.Capacity = opts.Capacity
		if len(cfg.Seeds) == 0 && !opts.DisableGASeeding {
			seeds, err := heuristicSeeds(NewEvaluator(s, opts.Kernel, nil), q, opts.Capacity)
			if err != nil {
				return nil, 0, err
			}
			cfg.Seeds = seeds
		}
		res, err := GA(s, q, cfg)
		if err != nil {
			return nil, 0, err
		}
		return res.Best, res.Cost, nil

	case StrategyRW:
		cfg := opts.RW
		if cfg.Iterations == 0 {
			cfg = DefaultRWConfig()
		}
		cfg.Capacity = opts.Capacity
		return RandomWalk(s, q, cfg)

	default:
		return nil, 0, fmt.Errorf("placement: unknown strategy %q", id)
	}
}

// TestRegistryParityWithLegacySwitch is the golden parity test: every
// registered paper strategy must produce the same placement and shift
// count through the registry as through the seed's switch dispatch.
func TestRegistryParityWithLegacySwitch(t *testing.T) {
	seqs := []string{
		"a b a b c a c a d d a",
		"a b c d e f a b c d e f a a b b",
		"x y x z y x w z w y x v v v w",
		"a a a a",
		"p q r s t u v w x y z p p q q r r s s",
	}
	opts := Options{
		GA: GAConfig{Mu: 8, Lambda: 8, Generations: 6, TournamentK: 2,
			MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 7},
		RW: RWConfig{Iterations: 120, Seed: 7},
	}
	for _, text := range seqs {
		s := mustSeq(t, text)
		for _, q := range []int{1, 2, 4} {
			for _, id := range AllStrategies() {
				wantP, wantC, wantErr := legacyPlace(id, s, q, opts)
				gotP, gotC, gotErr := Place(id, s, q, opts)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s q=%d %q: error mismatch: legacy %v, registry %v", id, q, text, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if gotC != wantC {
					t.Errorf("%s q=%d %q: shifts: legacy %d, registry %d", id, q, text, wantC, gotC)
				}
				if !gotP.Equal(wantP) {
					t.Errorf("%s q=%d %q: placements differ:\n legacy  %s\n registry %s", id, q, text, wantP, gotP)
				}
			}
		}
	}
}

// TestDMATwoOptNeverWorseThanDMASR checks the invariant the DMA-2opt
// extension strategy is registered under: 2-opt polishing can only keep
// or reduce the DMA-SR cost.
func TestDMATwoOptNeverWorseThanDMASR(t *testing.T) {
	seqs := []string{
		"a b a b c a c a d d a",
		"a b c d e f a b c d e f a a b b",
		"x y x z y x w z w y x v v v w",
		"p q r s t u v w x y z p p q q r r s s t u v",
	}
	for _, text := range seqs {
		s := mustSeq(t, text)
		for _, q := range []int{1, 2, 4} {
			_, sr, err := Place(StrategyDMASR, s, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, refined, err := PlaceDMATwoOpt(s, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if refined > sr {
				t.Errorf("q=%d %q: DMA-2opt %d > DMA-SR %d", q, text, refined, sr)
			}
		}
	}
}

func mustSeq(t *testing.T, text string) *trace.Sequence {
	t.Helper()
	s, err := trace.NewNamedSequence(strings.Fields(text)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
