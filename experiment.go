package racetrack

import (
	"context"
	"fmt"

	"repro/internal/eval"
)

// The experiment drivers behind the paper's tables and figures, promoted
// from internal/eval to the public API: Lab.Run dispatches a typed
// ExperimentSpec and returns the driver's typed dataset. Each result
// type carries a Render method (the aligned text table) and, where the
// figure has one, a WriteCSV method.

// An Experiment names one driver of the paper's evaluation (section IV)
// or one of the repository's extension studies.
type Experiment string

// The available experiments.
const (
	// ExperimentTable1 renders Table I (the device parameters).
	ExperimentTable1 Experiment = "table1"
	// ExperimentFig4 regenerates the per-benchmark normalized shift
	// costs of Fig. 4 for all six strategies.
	ExperimentFig4 Experiment = "fig4"
	// ExperimentFig5 regenerates the Fig. 5 energy breakdown.
	ExperimentFig5 Experiment = "fig5"
	// ExperimentFig6 regenerates the Fig. 6 DBC-count trade-off.
	ExperimentFig6 Experiment = "fig6"
	// ExperimentLatency regenerates the section IV-C latency numbers.
	ExperimentLatency Experiment = "latency"
	// ExperimentHeadline computes the abstract's aggregate claims.
	ExperimentHeadline Experiment = "headline"
	// ExperimentLongGA runs the section IV-B long-GA optimality probe.
	ExperimentLongGA Experiment = "longga"
	// ExperimentPorts sweeps the access-port count (extension study).
	ExperimentPorts Experiment = "ports"
	// ExperimentConvergence records seeded-vs-cold GA trajectories.
	ExperimentConvergence Experiment = "convergence"
	// ExperimentTensor runs the LCTES'19-style tensor-contraction study.
	ExperimentTensor Experiment = "tensor"
	// ExperimentPortfolio races the whole strategy portfolio per
	// sequence (extension study; see Lab.PlacePortfolio).
	ExperimentPortfolio Experiment = "portfolio"
	// ExperimentPareto sweeps Table I configurations × port counts ×
	// fault rates, re-optimizes per geometry, and reports the Pareto
	// front over (runtime, energy, area) (extension study; DESIGN.md
	// §15).
	ExperimentPareto Experiment = "pareto"
)

// Experiments lists every experiment in presentation order (the order
// `rtmbench -exp all` runs them in).
func Experiments() []Experiment {
	return []Experiment{
		ExperimentTable1, ExperimentFig4, ExperimentFig5, ExperimentFig6,
		ExperimentPorts, ExperimentPareto, ExperimentPortfolio,
		ExperimentLatency, ExperimentHeadline, ExperimentLongGA,
		ExperimentTensor, ExperimentConvergence,
	}
}

// ExperimentConfig scales an experiment: DBC counts, benchmark subset,
// sequence caps, GA/RW budgets and the engine worker-pool size
// (Parallel). The zero value is replaced by QuickConfig; see also
// FullConfig for the paper's published budgets.
type ExperimentConfig = eval.Config

// QuickConfig returns the scaled-down experiment configuration: the
// three longest sequences per benchmark and small GA/RW budgets. Trends
// remain visible; absolute ratios are noisier than FullConfig.
func QuickConfig() ExperimentConfig { return eval.Quick() }

// FullConfig returns the paper's published experiment scale: all
// benchmarks, all sequences, GA with µ = λ = 100 for 200 generations, RW
// with 60 000 iterations. This is expensive (hours).
func FullConfig() ExperimentConfig { return eval.Full() }

// The typed experiment datasets (see internal/eval for the field
// documentation of each).
type (
	// Fig4Result is the Fig. 4 dataset: per-benchmark shift totals
	// normalized to GA, plus the geomeans the paper quotes.
	Fig4Result = eval.Fig4Result
	// Fig5Result is the Fig. 5 dataset: the normalized energy breakdown
	// and the savings the paper quotes.
	Fig5Result = eval.Fig5Result
	// Fig6Result is the Fig. 6 dataset: the DBC-count trade-off rows.
	Fig6Result = eval.Fig6Result
	// LatencyResult carries the section IV-C latency improvements.
	LatencyResult = eval.LatencyResult
	// HeadlineResult carries the abstract's aggregate claims.
	HeadlineResult = eval.HeadlineResult
	// LongGAResult is the long-GA optimality probe.
	LongGAResult = eval.LongGAResult
	// PortsResult is the access-port sweep dataset.
	PortsResult = eval.PortsResult
	// ConvergenceResult records GA best-cost trajectories.
	ConvergenceResult = eval.ConvergenceResult
	// TensorResult is the tensor-contraction study dataset.
	TensorResult = eval.TensorResult
	// PortfolioStudyResult is the portfolio-race study dataset.
	PortfolioStudyResult = eval.PortfolioStudyResult
	// ParetoResult is the configuration-sweep dataset: every swept
	// (DBCs, ports, fault rate) point with its priced (runtime, energy,
	// area) coordinates and the non-dominated front.
	ParetoResult = eval.ParetoResult
	// ParetoPoint is one swept configuration of ParetoResult.
	ParetoPoint = eval.ParetoPoint
)

// An ExperimentSpec selects and parameterizes one experiment for
// Lab.Run.
type ExperimentSpec struct {
	// Experiment selects the driver.
	Experiment Experiment
	// Config scales the run; the zero value means QuickConfig(). When
	// Config.Parallel is 0 the Lab's worker-pool size applies.
	Config ExperimentConfig
	// MaxPorts bounds the ports sweep (ExperimentPorts); default 4.
	MaxPorts int
	// Generations is the long-GA budget (ExperimentLongGA); default
	// 2000, the paper's probe length.
	Generations int
	// Benchmark selects the benchmark for ExperimentConvergence (empty:
	// the largest sequence of the whole suite).
	Benchmark string
	// ParetoPorts lists the port counts of the Pareto configuration
	// sweep (ExperimentPareto); default {1, 2}.
	ParetoPorts []int
	// FaultRates lists the position-error rates of the Pareto sweep
	// (ExperimentPareto), each in [0, 1); default {0, 0.01}.
	FaultRates []float64
}

// An ExperimentResult carries the typed dataset of the one experiment
// that ran; exactly the field matching the spec's Experiment is set.
type ExperimentResult struct {
	Experiment  Experiment
	Table1      string
	Fig4        *Fig4Result
	Fig5        *Fig5Result
	Fig6        *Fig6Result
	Latency     *LatencyResult
	Headline    *HeadlineResult
	LongGA      *LongGAResult
	Ports       *PortsResult
	Convergence *ConvergenceResult
	Tensor      *TensorResult
	Portfolio   *PortfolioStudyResult
	Pareto      *ParetoResult
}

// Render returns the experiment's aligned text table (the same output
// rtmbench prints).
func (r *ExperimentResult) Render() string {
	switch {
	case r.Table1 != "":
		return r.Table1
	case r.Fig4 != nil:
		return r.Fig4.Render()
	case r.Fig5 != nil:
		return r.Fig5.Render()
	case r.Fig6 != nil:
		return r.Fig6.Render()
	case r.Latency != nil:
		return r.Latency.Render()
	case r.Headline != nil:
		return r.Headline.Render()
	case r.LongGA != nil:
		return r.LongGA.Render()
	case r.Ports != nil:
		return r.Ports.Render()
	case r.Convergence != nil:
		return r.Convergence.Render()
	case r.Tensor != nil:
		return r.Tensor.Render()
	case r.Portfolio != nil:
		return r.Portfolio.Render()
	case r.Pareto != nil:
		return r.Pareto.Render()
	}
	return ""
}

// Run executes one experiment of the paper's evaluation pipeline with
// this Lab's registry, kernel cache, progress callback and worker pool.
// Cancelling the context aborts the remaining experiment cells promptly.
func (l *Lab) Run(ctx context.Context, spec ExperimentSpec) (*ExperimentResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := l.experimentConfig(spec.Config)
	res := &ExperimentResult{Experiment: spec.Experiment}
	var err error
	switch spec.Experiment {
	case ExperimentTable1:
		res.Table1 = eval.Table1Render()
	case ExperimentFig4:
		res.Fig4, err = eval.Fig4(ctx, cfg)
	case ExperimentFig5:
		res.Fig5, err = eval.Fig5(ctx, cfg)
	case ExperimentFig6:
		res.Fig6, err = eval.Fig6(ctx, cfg)
	case ExperimentLatency:
		res.Latency, err = eval.Latency(ctx, cfg)
	case ExperimentHeadline:
		res.Headline, err = eval.Headline(ctx, cfg)
	case ExperimentLongGA:
		gens := spec.Generations
		if gens <= 0 {
			gens = 2000
		}
		res.LongGA, err = eval.LongGA(ctx, cfg, gens)
	case ExperimentPorts:
		ports := spec.MaxPorts
		if ports <= 0 {
			ports = 4
		}
		res.Ports, err = eval.PortsSweep(ctx, cfg, ports)
	case ExperimentConvergence:
		res.Convergence, err = eval.Convergence(ctx, cfg, spec.Benchmark)
	case ExperimentTensor:
		res.Tensor, err = eval.Tensor(ctx, cfg)
	case ExperimentPortfolio:
		res.Portfolio, err = eval.Portfolio(ctx, cfg)
	case ExperimentPareto:
		res.Pareto, err = eval.Pareto(ctx, cfg, spec.ParetoPorts, spec.FaultRates)
	default:
		err = fmt.Errorf("racetrack: unknown experiment %q", spec.Experiment)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// experimentConfig normalizes a spec's config against the Lab: a zero
// config becomes QuickConfig wholesale; a partial config keeps every
// field the caller set and fills only the missing knobs that have no
// usable zero value (DBC counts, GA and RW budgets) from QuickConfig —
// the sequence caps stay as given, because 0 already means "no cap".
// An unset worker-pool size becomes the Lab's, and the Lab's
// registry/kernel-cache/progress hooks are wired into the engine batch
// layer (overriding any caller-supplied hooks — the Lab's scoping is
// the point of running through a Lab).
func (l *Lab) experimentConfig(cfg ExperimentConfig) ExperimentConfig {
	quick := eval.Quick()
	gaZero := cfg.GA.Mu == 0 && cfg.GA.Seed == 0 && cfg.GA.Workers == 0 &&
		cfg.GA.ImproveWeight == 0 && len(cfg.GA.Seeds) == 0 && cfg.GA.Islands == 0
	rwZero := cfg.RW.Iterations == 0 && cfg.RW.Seed == 0
	zero := len(cfg.DBCCounts) == 0 && cfg.Benchmarks == nil &&
		cfg.MaxSequences == 0 && cfg.MaxSequenceLen == 0 &&
		gaZero && rwZero && cfg.Capacity == 0 && cfg.Ports == 0
	switch {
	case zero:
		quick.Parallel = cfg.Parallel
		cfg = quick
	default:
		if len(cfg.DBCCounts) == 0 {
			cfg.DBCCounts = quick.DBCCounts
		}
		if cfg.GA.Mu == 0 {
			// Fill the budget knobs with Quick's small ones — an unset
			// GA must not turn a quick run into the paper's hours-long
			// 200-generation default — but keep every caller-set field
			// (seed, fitness workers, memetic weight, injected seeds).
			ga := quick.GA
			if cfg.GA.Seed != 0 {
				ga.Seed = cfg.GA.Seed
			}
			ga.Workers = cfg.GA.Workers
			ga.ImproveWeight = cfg.GA.ImproveWeight
			ga.Seeds = cfg.GA.Seeds
			ga.Capacity = cfg.GA.Capacity
			ga.Islands = cfg.GA.Islands
			ga.MigrationEvery = cfg.GA.MigrationEvery
			ga.Elites = cfg.GA.Elites
			ga.IslandProgress = cfg.GA.IslandProgress
			cfg.GA = ga
		}
		if cfg.RW.Iterations == 0 {
			rw := quick.RW
			if cfg.RW.Seed != 0 {
				rw.Seed = cfg.RW.Seed
			}
			rw.Capacity = cfg.RW.Capacity
			cfg.RW = rw
		}
	}
	if cfg.Parallel == 0 {
		cfg.Parallel = l.workers
	}
	// The cost model follows the Lab's device: a WithPorts Lab runs its
	// experiments under the multi-port objective unless the spec pins a
	// port count of its own.
	if cfg.Ports == 0 {
		cfg.Ports = l.device.Geometry.PortsPerTrack
	}
	cfg.Hooks = l.hooks()
	return cfg
}
