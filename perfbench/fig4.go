package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	racetrack "repro"
	"repro/internal/offsetstone"
)

// runFig4 is the paper's own experiment: Lab.Run of fig4 at the Quick
// budgets — the six paper strategies × DBC counts {2,4,8,16} over the
// 31 OffsetStone-profile benchmarks — with GA/RW seeds derived from the
// workload seed and nproc engine workers. One pass is one Run; its
// operations are the experiment cells.
func runFig4(o options, out *outcome) error {
	ctx := context.Background()
	workers := nproc()
	cfg := racetrack.QuickConfig()
	cfg.Parallel = workers
	cfg.GA.Seed = deriveSeed(o.seed, 1)
	cfg.RW.Seed = deriveSeed(o.seed, 2)

	setup, err := timedSetup(o, func() error {
		lab, err := racetrack.New(racetrack.WithWorkers(workers))
		if err != nil {
			return err
		}
		warm := cfg
		warm.Benchmarks = offsetstone.Names()[:8]
		_, err = lab.Run(ctx, racetrack.ExperimentSpec{Experiment: racetrack.ExperimentFig4, Config: warm})
		return err
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}

	var (
		latency                [][]float64
		rates, cellRates       []float64
		tracedRates            []float64
		totalShifts, totalAccs int64 = -1, -1
		layers                       = map[string][]float64{}
		rec                          = newRecorder()
		kernelSeqs             []*racetrack.Sequence
	)
	err = passes(o, out, setup, func(i int) (time.Duration, error) {
		traced := o.trace && i%2 == 1
		clock := &cellClock{start: time.Now()}
		lab, err := racetrack.New(racetrack.WithWorkers(workers), racetrack.WithProgress(clock.event))
		if err != nil {
			return 0, err
		}
		res, err := lab.Run(ctx, racetrack.ExperimentSpec{Experiment: racetrack.ExperimentFig4, Config: cfg})
		wall := time.Since(clock.start)
		if err != nil {
			return 0, err
		}
		out.attempted += int64(clock.cells)
		checkFig4(out, res.Fig4, clock)
		if totalShifts >= 0 && (clock.shifts != totalShifts || clock.accesses != totalAccs) {
			out.fail("fig4 pass %d placed %d shifts over %d accesses; pass 0 placed %d over %d",
				i, clock.shifts, clock.accesses, totalShifts, totalAccs)
		}
		totalShifts, totalAccs = clock.shifts, clock.accesses
		rate := float64(clock.accesses) / wall.Seconds()
		if traced {
			tracedRates = append(tracedRates, rate)
			clock.layers(layers, wall, workers)
			clock.spans(rec, wall)
			kernelSeqs = clock.seqs
			return wall, nil
		}
		rates = append(rates, rate)
		cellRates = append(cellRates, float64(clock.cells)/wall.Seconds())
		latency = append(latency, ms(clock.durations()))
		return wall, nil
	})
	if err != nil {
		return err
	}
	out.note("per-pass rates: %.4g", rates)
	out.e2e["accesses_per_s"] = median(rates)
	out.e2e["requests_per_s"] = median(cellRates)
	out.e2e["shifts_per_access"] = float64(totalShifts) / float64(totalAccs)
	out.note("fig4-sweep: %d untraced passes, %d shifts over %d accesses per pass", len(rates), totalShifts, totalAccs)
	if !o.trace {
		_, err := latencyMetrics(out, "cell", latency)
		return err
	}
	for k, vs := range layers {
		out.layer[k] = median(vs)
	}
	out.layer["placement.kernel_build_s"] = kernelBuild(kernelSeqs)
	overhead(out, "accesses/s", rates, tracedRates)
	return rec.writeJSONL(spanFile(o))
}

// checkFig4 verifies one pass against the paper's shape: GA normalizes
// to exactly 1, DMA-OFU beats AFD-OFU on the geomean at every DBC
// count, and the per-cell shift totals the progress events reported add
// up to the dataset's.
func checkFig4(out *outcome, r *racetrack.Fig4Result, clock *cellClock) {
	var rows int64
	for _, row := range r.Rows {
		if row.Normalized[racetrack.GA] != 1 {
			out.fail("fig4 %s at %d DBCs: GA normalizes to %v, not 1", row.Benchmark, row.DBCs, row.Normalized[racetrack.GA])
		}
		for _, s := range row.Shifts {
			rows += s
		}
	}
	for q, g := range r.Geomean {
		if !(g[racetrack.DMAOFU] < g[racetrack.AFDOFU]) {
			out.fail("fig4 at %d DBCs: DMA-OFU geomean %.3f does not beat AFD-OFU %.3f", q, g[racetrack.DMAOFU], g[racetrack.AFDOFU])
		}
	}
	if rows != clock.shifts {
		out.fail("fig4 rows total %d shifts but the cells reported %d", rows, clock.shifts)
	}
	if clock.failedCells > 0 {
		out.fail("fig4: %d cells failed", clock.failedCells)
	}
}

// cellClock timestamps experiment cells from the Lab's progress events.
// The Lab serializes progress delivery, so no locking is needed here.
type cellClock struct {
	start       time.Time
	begin, end  []time.Duration
	strategy    []racetrack.Strategy
	cells       int
	failedCells int
	shifts      int64
	accesses    int64
	// seqs are the distinct sequences the pass placed, in the order
	// their first cell finished.
	seqs []*racetrack.Sequence
	seen map[*racetrack.Sequence]bool
}

func (c *cellClock) event(ev racetrack.ProgressEvent) {
	if ev.Island >= 0 {
		return
	}
	if c.begin == nil {
		c.begin = make([]time.Duration, ev.Cells)
		c.end = make([]time.Duration, ev.Cells)
		c.strategy = make([]racetrack.Strategy, ev.Cells)
	}
	t := time.Since(c.start)
	if !ev.Done {
		c.begin[ev.Cell] = t
		return
	}
	c.end[ev.Cell] = t
	c.strategy[ev.Cell] = ev.Strategy
	c.cells++
	if c.seen == nil {
		c.seen = map[*racetrack.Sequence]bool{}
	}
	if !c.seen[ev.Sequence] {
		c.seen[ev.Sequence] = true
		c.seqs = append(c.seqs, ev.Sequence)
	}
	if ev.Err != nil {
		c.failedCells++
		return
	}
	c.shifts += ev.Shifts
	c.accesses += int64(ev.Sequence.Len())
}

func (c *cellClock) durations() []time.Duration {
	out := make([]time.Duration, len(c.begin))
	for i := range c.begin {
		out[i] = c.end[i] - c.begin[i]
	}
	return out
}

// layers adds one traced pass's per-layer figures.
func (c *cellClock) layers(acc map[string][]float64, wall time.Duration, workers int) {
	var ga, rw, construct, busy, last time.Duration
	for i, d := range c.durations() {
		switch c.strategy[i] {
		case racetrack.GA:
			ga += d
		case racetrack.RW:
			rw += d
		default:
			construct += d
		}
		busy += d
		last = max(last, c.end[i])
	}
	add := func(k string, v float64) { acc[k] = append(acc[k], v) }
	add("placement.ga.busy_s", ga.Seconds())
	add("placement.rw.busy_s", rw.Seconds())
	add("placement.construct.busy_s", construct.Seconds())
	add("placement.cells", float64(c.cells))
	add("engine.busy_frac", busy.Seconds()/(float64(workers)*wall.Seconds()))
	add("eval.tail_s", (wall - last).Seconds())
}

// spans records one traced pass: the Run as the root, each cell under
// it, named by its strategy's layer.
func (c *cellClock) spans(rec *recorder, wall time.Duration) {
	base := rec.now() - wall
	root := rec.add(span{Name: "eval.fig4", Start: base, End: base + wall, Parent: -1, Req: -1, Count: int64(c.cells)})
	for i := range c.begin {
		name := "placement.construct"
		switch c.strategy[i] {
		case racetrack.GA:
			name = "placement.ga"
		case racetrack.RW:
			name = "placement.rw"
		}
		rec.add(span{Name: name, Start: base + c.begin[i], End: base + c.end[i], Parent: root, Req: int64(i), Count: 1})
	}
}

// kernelBuild times NewCostKernel over seqs, one after another.
func kernelBuild(seqs []*racetrack.Sequence) float64 {
	start := time.Now()
	for _, s := range seqs {
		racetrack.NewCostKernel(s)
	}
	return time.Since(start).Seconds()
}

// deriveSeed mixes the workload seed with a stream index (SplitMix64),
// never returning 0 (a zero GA/RW seed means "default").
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return int64(z >> 1)
}

// spanFile is where a traced run writes its spans.
func spanFile(o options) string {
	return filepath.Join(".bench_build", "spans-"+o.workload+".jsonl")
}
