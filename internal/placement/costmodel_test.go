package placement

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/trace"
)

func TestParseObjective(t *testing.T) {
	cases := []struct {
		spec string
		obj  Objective
		rate float64
		ok   bool
	}{
		{"", ObjectiveShifts, 0, true},
		{"shifts", ObjectiveShifts, 0, true},
		{"energy", ObjectiveEnergy, 0, true},
		{"runtime", ObjectiveRuntime, 0, true},
		{"faulty:0", ObjectiveFaulty, 0, true},
		{"faulty:0.01", ObjectiveFaulty, 0.01, true},
		{"faulty:0.999", ObjectiveFaulty, 0.999, true},
		{"faulty", "", 0, false},
		{"faulty:", "", 0, false},
		{"faulty:1", "", 0, false},
		{"faulty:-0.1", "", 0, false},
		{"faulty:nope", "", 0, false},
		{"watts", "", 0, false},
		{"SHIFTS", "", 0, false},
	}
	for _, tc := range cases {
		obj, rate, err := ParseObjective(tc.spec)
		if tc.ok != (err == nil) {
			t.Errorf("ParseObjective(%q): err = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if tc.ok && (obj != tc.obj || rate != tc.rate) {
			t.Errorf("ParseObjective(%q) = (%q, %v), want (%q, %v)", tc.spec, obj, rate, tc.obj, tc.rate)
		}
	}
}

func TestNewCostModelValidation(t *testing.T) {
	p4, err := energy.ForDBCs(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCostModel(ObjectiveEnergy, p4, 0); err != nil {
		t.Errorf("valid energy model rejected: %v", err)
	}
	if _, err := NewCostModel("faulty:0.1", p4, 0); err == nil {
		t.Error("inline fault rate accepted; it must be passed as the argument")
	}
	if _, err := NewCostModel(ObjectiveFaulty, p4, 1); err == nil {
		t.Error("fault rate 1 accepted")
	}
	if _, err := NewCostModel(ObjectiveFaulty, p4, -0.1); err == nil {
		t.Error("negative fault rate accepted")
	}
	if _, err := NewCostModel("watts", p4, 0); err == nil {
		t.Error("unknown objective accepted")
	}
	neg := p4
	neg.ShiftEnergyPJ = -1
	if _, err := NewCostModel(ObjectiveShifts, neg, 0); err == nil {
		t.Error("negative Table I parameter accepted")
	}
	// Monotonicity: a runtime objective with zero shift latency is flat
	// in shifts — the optimizers' shift proxy would be meaningless.
	if _, err := NewCostModel(ObjectiveRuntime, energy.Params{ReadLatencyNS: 1}, 0); err == nil {
		t.Error("runtime objective with zero shift latency accepted")
	}
	if _, err := NewCostModel(ObjectiveEnergy, energy.Params{ReadEnergyPJ: 1}, 0); err == nil {
		t.Error("energy objective with zero shift coefficient accepted")
	}
	// ...but the shifts objective needs no device constants at all.
	if _, err := NewCostModel(ObjectiveShifts, energy.Params{}, 0); err != nil {
		t.Errorf("zero-params shifts model rejected: %v", err)
	}
}

func TestCostModelSpecRoundTrip(t *testing.T) {
	p4, _ := energy.ForDBCs(4)
	for _, spec := range []string{"shifts", "energy", "runtime", "faulty:0.01", "faulty:0.25"} {
		obj, rate, err := ParseObjective(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewCostModel(obj, p4, rate)
		if err != nil {
			t.Fatal(err)
		}
		if m.Spec() != spec {
			t.Errorf("spec %q round-tripped to %q", spec, m.Spec())
		}
		obj2, rate2, err := ParseObjective(m.Spec())
		if err != nil || obj2 != obj || rate2 != rate {
			t.Errorf("re-parse of %q gave (%q, %v, %v)", m.Spec(), obj2, rate2, err)
		}
	}
}

func TestDefaultCostModelPricesRawShifts(t *testing.T) {
	m := DefaultCostModel()
	c := m.Price(Tally{Shifts: 1234, Reads: 10, Writes: 5})
	if c.Scalar != 1234 || c.Shifts != 1234 {
		t.Errorf("default model scalar %v / shifts %d, want 1234", c.Scalar, c.Shifts)
	}
	if c.RuntimeNS != 0 || c.DynamicPJ != 0 || c.LeakagePJ != 0 || c.FaultShifts != 0 {
		t.Errorf("default model priced device dimensions: %+v", c)
	}
	if c.Objective != ObjectiveShifts {
		t.Errorf("default objective %q", c.Objective)
	}
}

// TestPriceGoldenTableI pins the §IV-C accounting for a hand-computed
// tally against the 4-DBC Table I row: 2 reads, 1 write, 10 shifts.
//
//	runtime = 2·0.84 + 1·1.14 + 10·0.92 = 12.02 ns
//	dynamic = 2·2.39 + 1·3.65 + 10·2.03 = 28.73 pJ
//	leakage = 4.33 mW · 12.02 ns       = 52.0466 pJ
func TestPriceGoldenTableI(t *testing.T) {
	p4, err := energy.ForDBCs(4)
	if err != nil {
		t.Fatal(err)
	}
	tally := Tally{Shifts: 10, Reads: 2, Writes: 1}
	for _, tc := range []struct {
		obj    Objective
		scalar float64
	}{
		{ObjectiveShifts, 10},
		{ObjectiveRuntime, 12.02},
		{ObjectiveEnergy, 28.73 + 52.0466},
	} {
		m, err := NewCostModel(tc.obj, p4, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := m.Price(tally)
		if math.Abs(c.RuntimeNS-12.02) > 1e-9 {
			t.Errorf("%s: runtime %v, want 12.02", tc.obj, c.RuntimeNS)
		}
		if math.Abs(c.DynamicPJ-28.73) > 1e-9 {
			t.Errorf("%s: dynamic %v, want 28.73", tc.obj, c.DynamicPJ)
		}
		if math.Abs(c.LeakagePJ-52.0466) > 1e-9 {
			t.Errorf("%s: leakage %v, want 52.0466", tc.obj, c.LeakagePJ)
		}
		if math.Abs(c.Scalar-tc.scalar) > 1e-9 {
			t.Errorf("%s: scalar %v, want %v", tc.obj, c.Scalar, tc.scalar)
		}
		if c.FaultShifts != 0 {
			t.Errorf("%s: fault shifts %v at rate 0", tc.obj, c.FaultShifts)
		}
		// Cross-check against the energy package's own accounting.
		counts := energy.Counts{Reads: 2, Writes: 1, Shifts: 10}
		if math.Abs(c.RuntimeNS-p4.LatencyNS(counts)) > 1e-9 {
			t.Errorf("%s: runtime disagrees with energy.LatencyNS", tc.obj)
		}
		eb := p4.Energy(counts)
		if math.Abs(c.TotalEnergyPJ()-eb.TotalPJ()) > 1e-9 {
			t.Errorf("%s: total energy %v disagrees with energy.Energy %v", tc.obj, c.TotalEnergyPJ(), eb.TotalPJ())
		}
	}
}

func TestPriceFaultOverhead(t *testing.T) {
	p4, _ := energy.ForDBCs(4)
	m, err := NewCostModel(ObjectiveFaulty, p4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Price(Tally{Shifts: 100, Reads: 4, Writes: 2})
	// Overhead factor 1/(1-0.5) = 2: 100 expected extra shifts.
	if math.Abs(c.FaultShifts-100) > 1e-9 {
		t.Errorf("fault shifts %v, want 100", c.FaultShifts)
	}
	wantRuntime := 4*0.84 + 2*1.14 + 200*0.92
	if math.Abs(c.RuntimeNS-wantRuntime) > 1e-9 {
		t.Errorf("runtime %v, want %v", c.RuntimeNS, wantRuntime)
	}
	if math.Abs(c.Scalar-wantRuntime) > 1e-9 {
		t.Errorf("scalar %v, want the expected runtime %v", c.Scalar, wantRuntime)
	}
	if c.Shifts != 100 {
		t.Errorf("nominal shifts %d mutated by the overhead", c.Shifts)
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Objective: ObjectiveEnergy, Shifts: 1, Reads: 2, Writes: 3, FaultShifts: 0.5, RuntimeNS: 1, DynamicPJ: 2, LeakagePJ: 3, Scalar: 5}
	a.Add(Cost{Shifts: 10, Reads: 20, Writes: 30, FaultShifts: 1.5, RuntimeNS: 10, DynamicPJ: 20, LeakagePJ: 30, Scalar: 50})
	if a.Shifts != 11 || a.Reads != 22 || a.Writes != 33 || a.FaultShifts != 2 ||
		a.RuntimeNS != 11 || a.DynamicPJ != 22 || a.LeakagePJ != 33 || a.Scalar != 55 {
		t.Errorf("Add gave %+v", a)
	}
	if a.TotalEnergyPJ() != 55 {
		t.Errorf("TotalEnergyPJ = %v, want 55", a.TotalEnergyPJ())
	}
	ta := Tally{Shifts: 1, Reads: 2, Writes: 3}
	ta.Add(Tally{Shifts: 9, Reads: 8, Writes: 7})
	if ta != (Tally{Shifts: 10, Reads: 10, Writes: 10}) {
		t.Errorf("Tally.Add gave %+v", ta)
	}
}

func TestTallyOf(t *testing.T) {
	s, err := trace.NewNamedSequence("a", "b!", "a", "c!", "b")
	if err != nil {
		t.Fatal(err)
	}
	tl := TallyOf(s, 42)
	if tl != (Tally{Shifts: 42, Reads: 3, Writes: 2}) {
		t.Errorf("TallyOf = %+v", tl)
	}
}

func TestPerDBCTallies(t *testing.T) {
	s, err := trace.NewNamedSequence("a", "b!", "a", "c!", "b", "c", "a!")
	if err != nil {
		t.Fatal(err)
	}
	p, total, err := Place(StrategyDMAOFU, s, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := ShiftCostBreakdown(s, p)
	if err != nil {
		t.Fatal(err)
	}
	tallies, err := PerDBCTallies(s, p, bd.PerDBC)
	if err != nil {
		t.Fatal(err)
	}
	if len(tallies) != 2 {
		t.Fatalf("got %d tallies", len(tallies))
	}
	var sum Tally
	for i, tl := range tallies {
		if tl.Shifts != bd.PerDBC[i] {
			t.Errorf("DBC %d: shifts %d != breakdown %d", i, tl.Shifts, bd.PerDBC[i])
		}
		sum.Add(tl)
	}
	if sum.Shifts != total {
		t.Errorf("summed shifts %d != total %d", sum.Shifts, total)
	}
	if sum.Reads != int64(s.Reads()) || sum.Writes != int64(s.Writes()) {
		t.Errorf("summed reads/writes %d/%d != sequence %d/%d", sum.Reads, sum.Writes, s.Reads(), s.Writes())
	}
}

// TestCostModelScalarMonotoneInShifts is the deterministic core of
// FuzzCostModelMonotone: for every constructible objective, pricing a
// larger shift count (same reads/writes) must yield a strictly larger
// scalar, and equal tallies must price to equal scalars.
func TestCostModelScalarMonotoneInShifts(t *testing.T) {
	p4, _ := energy.ForDBCs(4)
	models := []*CostModel{DefaultCostModel()}
	for _, spec := range []string{"shifts", "energy", "runtime", "faulty:0.2"} {
		obj, rate, err := ParseObjective(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewCostModel(obj, p4, rate)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for _, m := range models {
		prev := math.Inf(-1)
		for _, shifts := range []int64{0, 1, 2, 10, 1000, 1 << 40} {
			c := m.Price(Tally{Shifts: shifts, Reads: 7, Writes: 3})
			if c.Scalar <= prev {
				t.Errorf("%s: scalar %v at %d shifts not above %v", m.Spec(), c.Scalar, shifts, prev)
			}
			again := m.Price(Tally{Shifts: shifts, Reads: 7, Writes: 3})
			if again.Scalar != c.Scalar {
				t.Errorf("%s: pricing is not a pure function", m.Spec())
			}
			prev = c.Scalar
		}
	}
}
