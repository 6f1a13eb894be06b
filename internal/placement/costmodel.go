package placement

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/energy"
	"repro/internal/rtm"
	"repro/internal/trace"
)

// Pluggable cost objectives (DESIGN.md §15). The paper's accounting
// (§IV-C, Table I, Fig. 5) prices placements in runtime, dynamic energy
// and leakage, not raw shifts; a CostModel turns the repository's shift
// counts into those dimensions without the optimizers ever leaving the
// int64 shift primitive.
//
// The load-bearing fact: reads and writes are fixed by the trace — a
// placement changes only the shift count. Every supported objective is a
// strictly increasing affine function of shifts for a fixed (sequence,
// geometry, Table I config):
//
//	runtime  = reads·tR + writes·tW + shifts·f·tS
//	dynamic  = reads·eR + writes·eW + shifts·f·eS
//	leakage  = P_leak · runtime
//	faulty   = runtime with f = 1/(1-p) expected-correction overhead
//
// (f is the fault-overhead factor, 1 when the error rate is 0.) The
// strict monotonicity — enforced by NewCostModel — makes the argmin over
// placements identical to shift minimization, so the GA's fitness loop,
// the portfolio's incumbent pruning and the kernel/delta/port hot paths
// all keep comparing raw int64 shifts, allocation-free and bit-identical
// to the pre-CostModel code. The model prices tallies into the typed
// multi-dimension Cost only at reporting and scalarization boundaries:
// Lab results, portfolio winners, streamed totals, server responses and
// the pareto experiment.

// An Objective names a cost dimension to optimize and report under.
type Objective string

// The supported objectives. ObjectiveFaulty carries a per-shift error
// rate and is spelled "faulty:<rate>" (see ParseObjective).
const (
	// ObjectiveShifts is the paper's raw shift count — the default, and
	// the primitive every other objective reduces to.
	ObjectiveShifts Objective = "shifts"
	// ObjectiveEnergy is total energy (dynamic + leakage) in picojoules
	// under the Table I accounting of §IV-C.
	ObjectiveEnergy Objective = "energy"
	// ObjectiveRuntime is the serialized-access runtime in nanoseconds.
	ObjectiveRuntime Objective = "runtime"
	// ObjectiveFaulty is expected runtime under the FaultyEngine error
	// model: every shift slips with probability p and the 1/(1-p)
	// geometric correction overhead inflates the shift term.
	ObjectiveFaulty Objective = "faulty"
)

// ParseObjective parses an objective spec as accepted by the CLIs and
// the placement service: "shifts", "energy", "runtime" or
// "faulty:<rate>" with rate in [0,1). The empty string parses as
// ObjectiveShifts. The returned rate is 0 except for faulty specs.
func ParseObjective(spec string) (Objective, float64, error) {
	switch Objective(spec) {
	case "", ObjectiveShifts:
		return ObjectiveShifts, 0, nil
	case ObjectiveEnergy:
		return ObjectiveEnergy, 0, nil
	case ObjectiveRuntime:
		return ObjectiveRuntime, 0, nil
	}
	if rest, ok := strings.CutPrefix(spec, string(ObjectiveFaulty)+":"); ok {
		rate, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return "", 0, fmt.Errorf("placement: objective %q: bad fault rate: %w", spec, err)
		}
		if rate < 0 || rate >= 1 {
			return "", 0, fmt.Errorf("placement: objective %q: fault rate must be in [0,1)", spec)
		}
		return ObjectiveFaulty, rate, nil
	}
	return "", 0, fmt.Errorf("placement: unknown objective %q (want shifts, energy, runtime or faulty:<rate>)", spec)
}

// A Tally is the placement-dependent event totals a Cost is priced
// from: the shift count (the optimized primitive) plus the trace's
// read and write counts (fixed by the sequence, independent of the
// placement).
type Tally struct {
	Shifts int64
	Reads  int64
	Writes int64
}

// Add accumulates other into t.
func (t *Tally) Add(other Tally) {
	t.Shifts += other.Shifts
	t.Reads += other.Reads
	t.Writes += other.Writes
}

// A Cost is a tally priced into every dimension of the model at once.
// Scalar is the dimension the model's objective selects — the value a
// scalarized comparison of two placements would use.
type Cost struct {
	// Objective is the pricing model's objective.
	Objective Objective
	// Shifts, Reads, Writes echo the tally (nominal, fault-free counts).
	Shifts int64
	Reads  int64
	Writes int64
	// FaultShifts is the expected extra physical shifts spent on slip
	// correction (0 when the model's fault rate is 0). The runtime and
	// energy dimensions below include it.
	FaultShifts float64
	// RuntimeNS is the serialized-access runtime in nanoseconds.
	RuntimeNS float64
	// DynamicPJ and LeakagePJ split the energy as in Fig. 5.
	DynamicPJ float64
	LeakagePJ float64
	// Scalar is the objective's value: Shifts, total energy, or
	// (expected) runtime.
	Scalar float64
}

// TotalEnergyPJ returns dynamic + leakage energy.
func (c Cost) TotalEnergyPJ() float64 { return c.DynamicPJ + c.LeakagePJ }

// Add accumulates other into c dimension-wise (Objective is kept;
// accumulating costs priced by different models is a caller bug).
func (c *Cost) Add(other Cost) {
	c.Shifts += other.Shifts
	c.Reads += other.Reads
	c.Writes += other.Writes
	c.FaultShifts += other.FaultShifts
	c.RuntimeNS += other.RuntimeNS
	c.DynamicPJ += other.DynamicPJ
	c.LeakagePJ += other.LeakagePJ
	c.Scalar += other.Scalar
}

// A CostModel prices shift/read/write tallies under one objective and
// one Table I parameter set. It is immutable and safe for concurrent
// use. Construct with NewCostModel, which rejects models whose scalar
// is not strictly increasing in shifts — the invariant that lets every
// search layer optimize the raw shift count on the model's behalf
// (see the package comment above and DESIGN.md §15).
type CostModel struct {
	objective Objective
	params    energy.Params
	faultRate float64
	// overhead is the expected physical/nominal shift ratio 1/(1-rate),
	// precomputed so Price stays trivially cheap.
	overhead float64
}

// NewCostModel builds a pricing model. params supplies the Table I
// latencies/energies (a zero Params is accepted only for the shifts
// objective, which needs no device constants); faultRate is the
// per-shift slip probability of the FaultyEngine error model, in [0,1).
// Construction fails if the objective's scalar would not be strictly
// increasing in the shift count — negative parameters, or a runtime/
// energy objective whose shift coefficient is zero — because the search
// layers rely on that monotonicity to optimize shifts as a proxy.
func NewCostModel(objective Objective, params energy.Params, faultRate float64) (*CostModel, error) {
	obj := objective
	if obj != ObjectiveFaulty {
		// Normalize and validate through the parser ("" means shifts);
		// a "faulty:<rate>" spelling is rejected here — the rate is this
		// constructor's argument, not part of the objective name.
		var rate float64
		var err error
		obj, rate, err = ParseObjective(string(objective))
		if err != nil {
			return nil, err
		}
		if rate != 0 {
			return nil, fmt.Errorf("placement: NewCostModel: pass the fault rate as an argument, not inline in %q", objective)
		}
	}
	overhead, err := rtm.ExpectedShiftOverhead(faultRate)
	if err != nil {
		return nil, fmt.Errorf("placement: NewCostModel: %w", err)
	}
	for _, v := range []float64{
		params.LeakagePowerMW,
		params.WriteEnergyPJ, params.ReadEnergyPJ, params.ShiftEnergyPJ,
		params.ReadLatencyNS, params.WriteLatencyNS, params.ShiftLatencyNS,
		params.AreaMM2,
	} {
		if v < 0 {
			return nil, fmt.Errorf("placement: NewCostModel: negative Table I parameter %v", v)
		}
	}
	m := &CostModel{objective: obj, params: params, faultRate: faultRate, overhead: overhead}
	// The scalar's shift coefficient must be strictly positive: the
	// optimizers minimize shifts, and a flat (or decreasing) objective
	// would make that proxy wrong instead of merely indirect.
	switch obj {
	case ObjectiveRuntime, ObjectiveFaulty:
		if params.ShiftLatencyNS <= 0 {
			return nil, fmt.Errorf("placement: NewCostModel: %s objective needs ShiftLatencyNS > 0 to be monotone in shifts", obj)
		}
	case ObjectiveEnergy:
		if params.ShiftEnergyPJ <= 0 && params.LeakagePowerMW*params.ShiftLatencyNS <= 0 {
			return nil, fmt.Errorf("placement: NewCostModel: energy objective needs a positive shift energy or leakage·shift-latency term to be monotone in shifts")
		}
	}
	return m, nil
}

// DefaultCostModel returns the zero-overhead default: the raw shift
// objective with no device constants, pricing exactly what the
// pre-CostModel code reported.
func DefaultCostModel() *CostModel {
	return &CostModel{objective: ObjectiveShifts, overhead: 1}
}

// Objective returns the model's objective.
func (m *CostModel) Objective() Objective { return m.objective }

// FaultRate returns the model's per-shift slip probability.
func (m *CostModel) FaultRate() float64 { return m.faultRate }

// Params returns the model's Table I parameter set.
func (m *CostModel) Params() energy.Params { return m.params }

// Spec renders the model's objective in the CLI/service spelling:
// "shifts", "energy", "runtime" or "faulty:<rate>". It round-trips
// through ParseObjective and is the cache-key material the placement
// service uses to keep objectives from aliasing each other.
func (m *CostModel) Spec() string {
	if m.objective == ObjectiveFaulty {
		return string(ObjectiveFaulty) + ":" + strconv.FormatFloat(m.faultRate, 'g', -1, 64)
	}
	return string(m.objective)
}

// String implements fmt.Stringer as Spec.
func (m *CostModel) String() string { return m.Spec() }

// Price prices a tally into every cost dimension. It is pure arithmetic
// on the precomputed model constants — no allocation, no replay — so
// callers may price per result, per DBC or per window without
// measurable overhead (BenchmarkCostModel pins this).
//
//rtm:hotpath
func (m *CostModel) Price(t Tally) Cost {
	reads, writes := float64(t.Reads), float64(t.Writes)
	shifts := float64(t.Shifts) * m.overhead
	p := m.params
	c := Cost{
		Objective:   m.objective,
		Shifts:      t.Shifts,
		Reads:       t.Reads,
		Writes:      t.Writes,
		FaultShifts: shifts - float64(t.Shifts),
		RuntimeNS:   reads*p.ReadLatencyNS + writes*p.WriteLatencyNS + shifts*p.ShiftLatencyNS,
		DynamicPJ:   reads*p.ReadEnergyPJ + writes*p.WriteEnergyPJ + shifts*p.ShiftEnergyPJ,
	}
	c.LeakagePJ = p.LeakagePowerMW * c.RuntimeNS
	switch m.objective {
	case ObjectiveEnergy:
		c.Scalar = c.DynamicPJ + c.LeakagePJ
	case ObjectiveRuntime, ObjectiveFaulty:
		c.Scalar = c.RuntimeNS
	default:
		c.Scalar = float64(t.Shifts)
	}
	return c
}

// TallyOf pairs a sequence's (placement-independent) read/write counts
// with a shift count computed for one of its placements. One O(n) pass
// over the accesses — a reporting-boundary helper.
func TallyOf(s *trace.Sequence, shifts int64) Tally {
	w := int64(s.Writes())
	return Tally{Shifts: shifts, Reads: int64(s.Len()) - w, Writes: w}
}

// PerDBCTallies attributes the sequence's reads and writes per DBC and
// pairs them with the given per-DBC shift counts (a CostBreakdown's
// PerDBC slice), yielding one tally per DBC for per-DBC cost
// breakdowns. One O(n) pass over the accesses; a reporting-boundary
// helper, not a hot path.
func PerDBCTallies(s *trace.Sequence, p *Placement, perDBCShifts []int64) ([]Tally, error) {
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return nil, err
	}
	out := make([]Tally, len(perDBCShifts))
	for i, sh := range perDBCShifts {
		out[i].Shifts = sh
	}
	for _, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if d < 0 || d >= len(out) {
			return nil, fmt.Errorf("placement: per-DBC tallies: variable %d in DBC %d outside [0,%d)", a.Var, d, len(out))
		}
		if a.Write {
			out[d].Writes++
		} else {
			out[d].Reads++
		}
	}
	return out, nil
}
