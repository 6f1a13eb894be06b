// Command perfbench is the repository's end-to-end benchmark: it times
// calls into the library's public functions and the placement service
// from outside, on three seeded workloads, and prints one JSON result
// line. See README.md in this directory for the workloads, the metrics
// and how to run it.
//
//	bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh steady --workload serve-mix --runs 5 --seconds 10
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// processStart approximates the process start: package initialization
// runs before main, so this is the first instant the harness can read.
var processStart = time.Now()

// options are one run's command-line parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spin is passed to server.Config.Spin on serve-mix (a sensitivity
	// knob; 0 in every benchmark run).
	spin time.Duration
	// work is a scratch directory inside the checkout, removed at exit.
	work string
	// setupOnly ends the run after the workload's setup, printing its
	// setup_s sample (see timedSetup).
	setupOnly bool
}

// A workload runs one benchmark workload and fills in its outcome.
type workload func(o options, out *outcome) error

var workloads = map[string]workload{
	"fig4-sweep": runFig4,
	"stream-bin": runStream,
	"serve-mix":  runServe,
}

// metricDef is one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, on every workload
// (BENCHMARK.json's end_to_end, in the same order).
var endToEnd = []metricDef{
	{"accesses_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_frac", "frac"},
	{"shifts_per_access", "shifts/access"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports, on every workload
// (BENCHMARK.json's per_layer). A layer the workload does not run
// reports 0.
var perLayer = []metricDef{
	{"placement.ga.busy_s", "s"},
	{"placement.rw.busy_s", "s"},
	{"placement.construct.busy_s", "s"},
	{"placement.cells", "count"},
	{"engine.busy_frac", "frac"},
	{"eval.tail_s", "s"},
	{"trace.decode_s", "s"},
	{"trace.decode_accesses_per_s", "1/s"},
	{"placement.stream.window_p50_ms", "ms"},
	{"placement.stream.self_s", "s"},
	{"placement.stream.windows", "count"},
	{"placement.stream.migration_shifts", "count"},
	{"placement.stream.max_window_vars", "count"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"rtmclient.transport_p50_ms", "ms"},
	{"racetrack.place_p50_ms", "ms"},
	{"racetrack.place_p99_ms", "ms"},
	{"server.pre_place_p50_ms", "ms"},
	{"server.pre_place_p99_ms", "ms"},
	{"trace.parse_p50_us", "us"},
	{"trace.fingerprint_p50_us", "us"},
	{"diskcache.hit_ratio", "frac"},
	{"diskcache.writes", "count"},
	{"racetrack.kernel_cache_hit_ratio", "frac"},
	{"server.coalesced_frac", "frac"},
	{"server.shed_frac", "frac"},
	{"placement.kernel_build_s", "s"},
	{"tracing.overhead_pct", "%"},
}

// An outcome is what a workload measured. Operations that failed or
// returned a wrong output count in failed; problems lists why.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	// report holds human-readable lines for standard error: sample
	// counts, the span accounting and the tracing overhead.
	report []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: fig4-sweep, stream-bin or serve-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.DurationVar(&o.spin, "spin", 0, "serve-mix only: server.Config.Spin, to check the benchmark's sensitivity")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set up, print the setup time and exit (one setup_s sample)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	o.trace = traceFlag == 1
	work, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), o.workload+"-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	o.work = work

	st := makeStamp(o)
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"stamp": st}); err != nil {
		return err
	}
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	if err := wl(o, out); err != nil {
		if errors.Is(err, errSetupDone) {
			return nil
		}
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	if out.attempted < 1 {
		return fmt.Errorf("%s: no operations attempted", o.workload)
	}
	out.e2e["ok_frac"] = 1 - float64(out.failed)/float64(out.attempted)
	out.e2e["peak_rss_mib"] = peakRSSMiB()

	for _, line := range out.report {
		fmt.Fprintln(os.Stderr, line)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	defs, vals := endToEnd, out.e2e
	if o.trace {
		defs, vals = perLayer, out.layer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && o.trace {
			v, ok = 0, true // a layer this workload does not run
		}
		if !ok || math.IsNaN(v) {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		if math.IsInf(v, 0) {
			res.Correct = false
			v = math.MaxFloat64 // JSON has no infinity
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// nproc is the number of CPUs the benchmark may load.
func nproc() int { return runtime.NumCPU() }

// passes runs pass until at least o.seconds of measured time have been
// spent, and at least three passes (four in a traced run, whose odd
// passes are traced and even ones untraced). pass reports how long its
// measured part took.
//
// An untraced run also reports setup_s here: the median of setupSamples
// samples, each the time from one process's start to the end of its
// set-up, where its first timed operation begins. setup is this
// process's sample (see timedSetup). The others come from processes of
// this program started with --setup-only, one at a time between passes
// and spread evenly over the measured time, so that they meet the same
// spells of host speed as the passes.
func passes(o options, out *outcome, setup float64, pass func(i int) (time.Duration, error)) error {
	minPasses := 3
	if o.trace {
		minPasses = 4
	}
	samples := []float64{setup}
	var spent time.Duration
	limit := time.Duration(o.seconds * float64(time.Second))
	sampleDue := func(all bool) bool {
		due := limit * time.Duration(len(samples)-1) / (setupSamples - 1)
		return !o.trace && len(samples) < setupSamples && (all || spent >= due)
	}
	for i := 0; i < minPasses || spent < limit; i++ {
		for sampleDue(false) {
			if err := setupSample(o, &samples); err != nil {
				return err
			}
		}
		d, err := pass(i)
		if err != nil {
			return err
		}
		spent += d
	}
	for sampleDue(true) {
		if err := setupSample(o, &samples); err != nil {
			return err
		}
	}
	if !o.trace {
		out.e2e["setup_s"] = median(samples)
		out.note("setup_s: median of %d processes' samples %.4g", len(samples), samples)
	}
	return nil
}

// timedSetup runs setup and returns this process's setup_s sample, from
// process start to the end of setup. In a --setup-only process it
// prints the sample and returns errSetupDone instead.
func timedSetup(o options, setup func() error) (float64, error) {
	if err := setup(); err != nil {
		return 0, err
	}
	d := time.Since(processStart).Seconds()
	if o.setupOnly {
		if err := json.NewEncoder(os.Stdout).Encode(map[string]float64{"setup_s": d}); err != nil {
			return 0, err
		}
		return 0, errSetupDone
	}
	return d, nil
}

// setupSamples is how many setup_s samples a run takes.
const setupSamples = 9

// errSetupDone ends a --setup-only run once its sample is printed.
var errSetupDone = errors.New("setup done")

// setupSample runs this program with --setup-only and the run's
// parameters, waits for it to end and appends the sample it printed.
func setupSample(o options, samples *[]float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "--setup-only", "--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", "0", "--spin", o.spin.String())
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("setup sample: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var sample struct {
		SetupS *float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &sample); err != nil || sample.SetupS == nil {
		return fmt.Errorf("setup sample: no setup_s in %q", lines[len(lines)-1])
	}
	*samples = append(*samples, *sample.SetupS)
	return nil
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// latencyMetrics fills latency_p50_ms and latency_p99_ms from the
// untraced passes' per-operation latencies in milliseconds,
// passes[p][k] being operation k's latency in pass p. Every pass runs
// the same operations, so each operation's latency is the median of its
// measurements, and the percentiles are taken over operations: a burst
// of outside load that slows some passes does not become the tail, the
// operations that are slow on every pass do. An operation that failed
// in any pass (+Inf) stays +Inf. A p99 needs at least 1000 operations
// (see minSamples).
//
// It returns the typical pass time in seconds: the sum of the
// operations' medians, which is what a pass takes when every operation
// takes its typical time. Where a pass's operations run one after
// another and tile it (stream-bin's windows, serve-mix's single
// caller), the workload's throughput is taken from it, so a stall that
// hits a few operations of one pass is left out in the same way.
func latencyMetrics(out *outcome, what string, passes [][]float64) (float64, error) {
	if len(passes) == 0 {
		return 0, fmt.Errorf("%s latency: no passes", what)
	}
	ops := make([]float64, len(passes[0]))
	reps := make([]float64, len(passes))
	var typical float64
	for k := range ops {
		for p, lat := range passes {
			if len(lat) != len(ops) {
				return 0, fmt.Errorf("%s latency: pass %d has %d operations, pass 0 has %d", what, p, len(lat), len(ops))
			}
			reps[p] = lat[k]
		}
		ops[k] = median(reps)
		if slices.Contains(reps, math.Inf(1)) {
			ops[k] = math.Inf(1) // failed once: it missed the limit
		}
		typical += ops[k]
	}
	p50, err := percentile(ops, 50)
	if err != nil {
		return 0, fmt.Errorf("%s latency: %w", what, err)
	}
	p99, err := percentile(ops, 99)
	if err != nil {
		return 0, fmt.Errorf("%s latency: %w", what, err)
	}
	out.e2e["latency_p50_ms"] = p50
	out.e2e["latency_p99_ms"] = p99
	out.note("latency: %d %ss, each the median of %d passes: p50 %.4g ms, p99 %.4g ms; typical pass %.4g s",
		len(ops), what, len(passes), p50, p99, typical/1000)
	return typical / 1000, nil
}

// overhead reports the traced passes' end-to-end rate against the
// untraced passes' (positive = tracing slowed the run down).
func overhead(out *outcome, what string, untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	pct := 100 * (u - t) / u
	out.layer["tracing.overhead_pct"] = pct
	out.note("tracing overhead: %s %.1f untraced vs %.1f traced (%.2f%%)", what, u, t, pct)
}

// sortedKeys lists a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
