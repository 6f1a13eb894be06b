// Package sim is the trace-driven RTM simulator used by the evaluation —
// the stand-in for RTSim (see DESIGN.md §3). It replays access sequences
// against a placement on a configured RTM device, counts shifts under the
// device's port layout, and converts the resulting event counts into
// latency and energy using the Table I model.
package sim

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/rtm"
	"repro/internal/trace"
)

// Config describes the simulated device.
type Config struct {
	// Geometry is the RTM array layout.
	Geometry rtm.Geometry
	// Params is the timing/energy/area model; its DBC count should match
	// the geometry (helpers below guarantee this).
	Params energy.Params
	// EnforceCapacity rejects placements that overflow a DBC's domain
	// count. The paper's evaluation does not enforce capacity (some
	// OffsetStone functions exceed the 4 KiB array); disabled by default.
	EnforceCapacity bool
}

// TableIConfig builds the simulator configuration for one of the paper's
// iso-capacity configurations (2, 4, 8 or 16 DBCs).
func TableIConfig(dbcs int) (Config, error) {
	g, err := rtm.TableIGeometry(dbcs)
	if err != nil {
		return Config{}, err
	}
	p, err := energy.ForDBCs(dbcs)
	if err != nil {
		return Config{}, err
	}
	return Config{Geometry: g, Params: p}, nil
}

// Result aggregates the outcome of simulating one or more sequences.
type Result struct {
	// Counts are the raw event totals.
	Counts energy.Counts
	// LatencyNS is the serialized runtime.
	LatencyNS float64
	// Energy is the leakage / read-write / shift breakdown.
	Energy energy.Breakdown
	// Sequences is the number of sequences replayed.
	Sequences int
}

// Add merges another result (e.g. of the next sequence) into r.
func (r *Result) Add(other Result) {
	r.Counts.Add(other.Counts)
	r.LatencyNS += other.LatencyNS
	r.Energy.Add(other.Energy)
	r.Sequences += other.Sequences
}

// RunSequence replays one sequence with its placement on the device.
// The shift count is the placement evaluator's under the device's port
// layout (bit-identical to one rtm.ShiftEngine per DBC, the
// EngineCostAt oracle); reads and writes are placement-independent.
func RunSequence(cfg Config, s *trace.Sequence, p *placement.Placement) (Result, error) {
	if p.NumDBCs() > cfg.Geometry.DBCs() {
		return Result{}, fmt.Errorf("sim: placement uses %d DBCs, device has %d", p.NumDBCs(), cfg.Geometry.DBCs())
	}
	if cfg.EnforceCapacity {
		if n := p.MaxDBCLen(); n > cfg.Geometry.WordsPerDBC() {
			return Result{}, fmt.Errorf("sim: DBC occupancy %d exceeds %d domains", n, cfg.Geometry.WordsPerDBC())
		}
	}

	// The device may have fewer domains than the (capacity-relaxed)
	// placement needs; the track then grows so the shift counts remain
	// those of the cost model, with energy/latency per shift still from
	// the configured Params. The access ports stay at the positions the
	// *geometry* fabricated them at — the model's layout derives from the
	// geometry's track length, never the occupancy — or the simulated
	// costs would diverge from every evaluator that priced the placement
	// against the configured device (TestRunSequenceGrownTrackKeepsPorts).
	pm, err := placement.NewPortModel(cfg.Geometry.WordsPerDBC(), cfg.Geometry.PortsPerTrack)
	if err != nil {
		return Result{}, err
	}
	b, err := placement.NewEvaluator(s, nil, pm).Breakdown(p)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	t := placement.TallyOf(s, b.Total)
	c := energy.Counts{Reads: t.Reads, Writes: t.Writes, Shifts: t.Shifts}
	return Result{
		Counts:    c,
		LatencyNS: cfg.Params.LatencyNS(c),
		Energy:    cfg.Params.Energy(c),
		Sequences: 1,
	}, nil
}

// Benchmark-level simulation (place every sequence with a strategy,
// replay, accumulate) lives in the engine batch layer
// (engine.BatchSimulateWith) and the public session API
// (racetrack.Lab.SimulateBenchmark); this package only simulates one
// already-placed sequence at a time.
