package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	racetrack "repro"
)

// The stream-bin trace: a synthetic binary trace of 2^23 (8.4e6)
// accesses over 4096 variables (about 16 MB), placed out of core by the
// rtmplace -stream path with DMA-SR, the rtmplace default. The window
// is 8192 accesses (rtmplace -window 8192): 1024 windows a pass, enough
// for each pass to carry its own per-window p99; the default window
// (262144) gives 32.
//
// The seed permutes the variable ids of one fixed synthetic stream:
// every seed writes a different file and decodes different tokens, but
// the windows have the same shapes, so figures differ between seeds by
// measurement noise rather than by the draw.
const (
	streamVars     = 4096
	streamAccesses = 1 << 23
	streamWindow   = 1 << 13
)

func runStream(o options, out *outcome) error {
	ctx := context.Background()
	path := filepath.Join(o.work, "trace.rtb")
	setup, err := timedSetup(o, func() error {
		if err := writeSynthTrace(path, o.seed); err != nil {
			return err
		}
		// Warm-up: one decode-only scan and the first few windows.
		if _, err := decodeScan(path); err != nil {
			return err
		}
		lab, err := racetrack.New(racetrack.WithWorkers(nproc()))
		if err != nil {
			return err
		}
		bf, sc, err := openScan(path)
		if err != nil {
			return err
		}
		defer bf.Close()
		_, err = lab.PlaceStream(ctx, sc.NumVars(), &limitReader{r: sc, n: 4 * streamWindow}, streamOptions())
		return err
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}

	wantWindows := (streamAccesses + streamWindow - 1) / streamWindow
	var (
		latency            [][]float64
		rates, tracedRates []float64
		shifts             int64 = -1
		layers                   = map[string][]float64{}
		rec                      = newRecorder()
	)
	err = passes(o, out, setup, func(i int) (time.Duration, error) {
		traced := o.trace && i%2 == 1
		clock := &windowClock{start: time.Now()}
		lab, err := racetrack.New(racetrack.WithWorkers(nproc()), racetrack.WithProgress(clock.event))
		if err != nil {
			return 0, err
		}
		bf, sc, err := openScan(path)
		if err != nil {
			return 0, err
		}
		res, err := lab.PlaceStream(ctx, sc.NumVars(), sc, streamOptions())
		wall := time.Since(clock.start)
		bf.Close()
		if err != nil {
			return 0, err
		}
		out.attempted += int64(res.Windows)
		switch {
		case res.Accesses != streamAccesses:
			out.fail("stream pass %d consumed %d accesses, the trace has %d", i, res.Accesses, streamAccesses)
		case res.Windows != wantWindows || len(clock.ends) != wantWindows:
			out.fail("stream pass %d placed %d windows (%d reported), want ⌈%d/%d⌉ = %d",
				i, res.Windows, len(clock.ends), streamAccesses, streamWindow, wantWindows)
		case res.Shifts != res.WindowShifts+res.MigrationShifts:
			out.fail("stream pass %d: %d shifts is not %d window + %d migration shifts",
				i, res.Shifts, res.WindowShifts, res.MigrationShifts)
		case shifts >= 0 && res.Shifts != shifts:
			out.fail("stream pass %d placed %d shifts, pass 0 placed %d", i, res.Shifts, shifts)
		}
		shifts = res.Shifts
		rate := float64(res.Accesses) / wall.Seconds()
		if !traced {
			rates = append(rates, rate)
			latency = append(latency, ms(clock.durations()))
			return wall, nil
		}
		tracedRates = append(tracedRates, rate)
		decode, err := decodeScan(path)
		if err != nil {
			return 0, err
		}
		add := func(k string, v float64) { layers[k] = append(layers[k], v) }
		add("trace.decode_s", decode.Seconds())
		add("trace.decode_accesses_per_s", streamAccesses/decode.Seconds())
		add("placement.stream.window_p50_ms", median(ms(clock.durations())))
		add("placement.stream.self_s", (wall - decode).Seconds())
		add("placement.stream.windows", float64(res.Windows))
		add("placement.stream.migration_shifts", float64(res.MigrationShifts))
		add("placement.stream.max_window_vars", float64(res.MaxWindowVars))
		clock.spans(rec, wall, decode)
		return wall, nil
	})
	if err != nil {
		return err
	}
	out.note("per-pass wall rates: %.4g accesses/s", rates)
	out.e2e["shifts_per_access"] = float64(shifts) / streamAccesses
	out.note("stream-bin: %d untraced passes, %d shifts over %d accesses per pass", len(rates), shifts, streamAccesses)
	if !o.trace {
		// The windows tile a pass, one after another.
		typical, err := latencyMetrics(out, "window", latency)
		out.e2e["accesses_per_s"] = streamAccesses / typical
		out.e2e["requests_per_s"] = float64(wantWindows) / typical
		return err
	}
	for k, vs := range layers {
		out.layer[k] = median(vs)
	}
	overhead(out, "accesses/s", rates, tracedRates)
	return rec.writeJSONL(spanFile(o))
}

func streamOptions() racetrack.PlaceOptions {
	return racetrack.PlaceOptions{Strategy: racetrack.DMASR, DBCs: 4, Ports: 1, Window: streamWindow}
}

// writeSynthTrace writes the synthetic trace, its variables permuted by
// the seed, in the binary format.
func writeSynthTrace(path string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	w, err := racetrack.NewBinaryTraceWriter(bw, 1)
	if err != nil {
		return err
	}
	r, err := racetrack.NewSynthReader(racetrack.SynthConfig{Vars: streamVars, Accesses: streamAccesses, Seed: 1})
	if err != nil {
		return err
	}
	perm := rand.New(rand.NewSource(deriveSeed(seed, 4))).Perm(streamVars)
	if err := w.BeginSequence(streamVars, streamAccesses, nil); err != nil {
		return err
	}
	for {
		a, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		a.Var = perm[a.Var]
		if err := w.Append(a); err != nil {
			return err
		}
	}
	if err := w.EndSequence(); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func openScan(path string) (*racetrack.BinaryTraceFile, *racetrack.SequenceScanner, error) {
	bf, err := racetrack.OpenBinaryTrace(path)
	if err != nil {
		return nil, nil, err
	}
	sc, err := bf.Reader().ScanSequence()
	if err != nil {
		bf.Close()
		return nil, nil, err
	}
	return bf, sc, nil
}

// decodeScan times a decode-only scan of the trace: open, scan and
// read every access (the scanner verifies the fingerprint at EOF).
func decodeScan(path string) (time.Duration, error) {
	start := time.Now()
	bf, sc, err := openScan(path)
	if err != nil {
		return 0, err
	}
	defer bf.Close()
	var n int64
	for {
		_, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		n++
	}
	if n != streamAccesses {
		return 0, fmt.Errorf("decode scan read %d accesses, want %d", n, streamAccesses)
	}
	return time.Since(start), nil
}

// limitReader passes through the first n accesses of r.
type limitReader struct {
	r racetrack.AccessReader
	n int64
}

func (l *limitReader) Next() (racetrack.Access, error) {
	if l.n <= 0 {
		return racetrack.Access{}, io.EOF
	}
	l.n--
	return l.r.Next()
}

// windowClock timestamps placed windows from the Lab's progress events:
// a window's latency runs from the previous window's end (the first
// from the pass start, so it includes opening the trace).
type windowClock struct {
	start time.Time
	ends  []time.Duration
}

func (c *windowClock) event(ev racetrack.ProgressEvent) {
	if ev.Done {
		c.ends = append(c.ends, time.Since(c.start))
	}
}

func (c *windowClock) durations() []time.Duration {
	out := make([]time.Duration, len(c.ends))
	var prev time.Duration
	for i, e := range c.ends {
		out[i], prev = e-prev, e
	}
	return out
}

// spans records one traced pass: the pass as the root, each window
// under it, plus the separate decode-only scan as a sibling root.
func (c *windowClock) spans(rec *recorder, wall, decode time.Duration) {
	now := rec.now()
	rec.add(span{Name: "trace.decode", Start: now - decode, End: now, Parent: -1, Req: -1, Count: streamAccesses})
	base := now - decode - wall
	root := rec.add(span{Name: "placement.stream", Start: base, End: base + wall, Parent: -1, Req: -1, Count: streamAccesses})
	var prev time.Duration
	for i, e := range c.ends {
		rec.add(span{Name: "placement.stream.window", Start: base + prev, End: base + e, Parent: root, Req: int64(i), Count: 1})
		prev = e
	}
}
