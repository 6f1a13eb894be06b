package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	racetrack "repro"
	"repro/internal/offsetstone"
	"repro/internal/server"
	"repro/internal/server/diskcache"
	"repro/rtmclient"
)

// serve-mix: the placement service as cmd/rtmserve builds it, on a
// loopback listener with its disk cache in the run's scratch directory,
// driven by one closed-loop rtmclient caller replaying one seeded
// request list. Every pass starts a fresh server, Lab and cache, so each
// pass sees the same mix of cache hits and misses.
//
// One caller, not two: with two callers and the server sharing two
// CPUs, a request's latency depended on what the other caller's request
// was doing, and both throughput and p99 moved by tens of percent from
// run to run. With one, the requests run one after another, the same
// way on every pass.
const (
	serveRequests = 3000
	// serveMinGap keeps a repeat at least this many requests after the
	// request it repeats, so the original has normally finished (and
	// written the cache) when the repeat arrives.
	serveMinGap = 16
	// serveRecent is how many of the most recent fresh traces a new
	// (strategy, objective) request picks from: recent enough that the
	// Lab's 64-entry kernel cache still holds the trace's kernel.
	serveRecent = 32
	// serveRepeatWindow is how many of the most recent triples a repeat
	// picks from.
	serveRepeatWindow = 256
	// serveDeadline is far beyond any placement here, so no result is
	// partial.
	serveDeadline = 60 * time.Second
)

var (
	serveStrategies = []racetrack.Strategy{racetrack.DMASR, racetrack.DMAOFU}
	serveObjectives = []string{"", "energy", "faulty:0.01"}
)

// A serveTrace is one distinct request trace: its wire text, the
// sequence the server will parse from it, and its fingerprint.
type serveTrace struct {
	text string
	seq  *racetrack.Sequence
	fp   uint64
}

// A serveRequest is one entry of the request list.
type serveRequest struct {
	trace     int
	strategy  racetrack.Strategy
	objective string
	// class is 'f' for a fresh trace, 'n' for a seen trace under a new
	// strategy or objective, 'r' for a repeat.
	class byte
}

// serveMix generates the seeded request list: about 20% fresh traces
// (OffsetStone-profile sequences), 10% seen traces under a new
// (strategy, objective) and 70% repeats of an earlier (trace,
// strategy, objective).
//
// The seed renames every variable (a fixed-width, seed-derived prefix),
// so every run's traces are new to any cache, while the trace shapes
// and the request pattern are the same on every seed: figures then
// differ between seeds by measurement noise, not by which few huge
// traces a seed happened to draw. Fresh traces cycle through the 31
// profiles in order, and a repeat picks among the most recent
// serveRepeatWindow triples, so repeats spread evenly over the triples.
func serveMix(seed int64, n int) ([]serveTrace, []serveRequest, error) {
	rng := rand.New(rand.NewSource(1))
	prefix := fmt.Sprintf("%08x.", uint32(deriveSeed(seed, 3)))
	profiles := offsetstone.Names()
	var (
		traces  []serveTrace
		reqs    []serveRequest
		origins []int // request index that introduced each (trace, combo)
		used    []uint8
		fresh   []int // request index of each trace's first request
	)
	combos := len(serveStrategies) * len(serveObjectives)
	newCombo := func(t int, c int) serveRequest {
		used[t] |= 1 << c
		return serveRequest{trace: t, strategy: serveStrategies[c/len(serveObjectives)], objective: serveObjectives[c%len(serveObjectives)]}
	}
	for i := 0; i < n; i++ {
		r := rng.Float64()
		// Repeats and new combinations only reach back past the gap.
		var eligible []int
		for k := len(origins) - 1; k >= 0 && len(eligible) == 0; k-- {
			if origins[k] <= i-serveMinGap {
				eligible = origins[max(0, k+1-serveRepeatWindow) : k+1]
			}
		}
		var recent []int
		for t := len(fresh) - 1; t >= 0 && len(recent) < serveRecent; t-- {
			if fresh[t] <= i-serveMinGap && bits.OnesCount8(used[t]) < combos {
				recent = append(recent, t)
			}
		}
		switch {
		case r >= 0.3 && len(eligible) > 0:
			req := reqs[eligible[rng.Intn(len(eligible))]]
			req.class = 'r'
			reqs = append(reqs, req)
		case r >= 0.2 && r < 0.3 && len(recent) > 0:
			t := recent[rng.Intn(len(recent))]
			var free []int
			for c := 0; c < combos; c++ {
				if used[t]&(1<<c) == 0 {
					free = append(free, c)
				}
			}
			req := newCombo(t, free[rng.Intn(len(free))])
			req.class = 'n'
			origins = append(origins, i)
			reqs = append(reqs, req)
		default:
			p, err := offsetstone.ProfileFor(profiles[len(traces)%len(profiles)])
			if err != nil {
				return nil, nil, err
			}
			p.Name = fmt.Sprintf("%s.t%d", p.Name, len(traces))
			p.Sequences = 1
			text := traceText(offsetstone.GenerateProfile(p).Sequences[0], prefix)
			seq, err := racetrack.ParseSequence(text)
			if err != nil {
				return nil, nil, err
			}
			traces = append(traces, serveTrace{text: text, seq: seq, fp: seq.Fingerprint()})
			used = append(used, 0)
			fresh = append(fresh, i)
			req := newCombo(len(traces)-1, rng.Intn(combos))
			req.class = 'f'
			origins = append(origins, i)
			reqs = append(reqs, req)
		}
	}
	return traces, reqs, nil
}

// traceText renders a sequence in the text token format the service
// accepts, every variable name prefixed.
func traceText(s *racetrack.Sequence, prefix string) string {
	var b strings.Builder
	for i, a := range s.Accesses {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(prefix)
		b.WriteString(s.Name(a.Var))
		if a.Write {
			b.WriteByte('!')
		}
	}
	return b.String()
}

// A reqResult is one completed call.
type reqResult struct {
	start, end time.Duration // relative to the pass recorder's origin
	resp       *rtmclient.PlaceResponse
	err        error
}

// ok reports whether the call returned a complete placement. Sheds
// (429), drain refusals (503), server errors and partial results fail.
func (r reqResult) ok() bool { return r.err == nil && r.resp != nil && !r.resp.Partial }

// failure describes why a call did not return a complete placement.
func (r reqResult) failure() error {
	switch {
	case r.err != nil:
		return r.err
	case r.resp == nil:
		return fmt.Errorf("no response")
	default:
		return fmt.Errorf("partial result")
	}
}

// sample is the call's latency sample in milliseconds. A failed call
// missed any latency limit: it counts as +Inf, so a fast refusal can
// never make the latency look better.
func (r reqResult) sample() float64 {
	if !r.ok() {
		return math.Inf(1)
	}
	return float64(r.end-r.start) / float64(time.Millisecond)
}

type reqIDKey struct{}

// reqHeader carries the request-list index from the caller to the
// server's handler in traced passes.
const reqHeader = "X-Perfbench-Req"

// idTransport stamps each outgoing request with its list index.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}

// A serveInstance is one pass's service: Lab, disk cache, server and
// listener, plus the caller's client.
type serveInstance struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *rtmclient.Client
	trans  *http.Transport
	done   chan error
}

func startServe(o options, dir string, progress func(racetrack.ProgressEvent), wrap func(http.Handler) http.Handler) (*serveInstance, error) {
	labOpts := []racetrack.Option{racetrack.WithDevice(4)}
	if progress != nil {
		labOpts = append(labOpts, racetrack.WithProgress(progress))
	}
	lab, err := racetrack.New(labOpts...)
	if err != nil {
		return nil, err
	}
	cache, err := diskcache.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Lab:         lab,
		Cache:       cache,
		MaxQueue:    64,
		MaxDeadline: 30 * time.Second,
		RetryAfter:  time.Second,
		DefaultDBCs: 4,
		Spin:        o.spin,
		Log:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	si := &serveInstance{srv: srv, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { si.done <- si.hs.Serve(ln) }()
	si.trans = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	var rt http.RoundTripper = si.trans
	if wrap != nil {
		rt = idTransport{si.trans}
	}
	si.client = rtmclient.New(si.base, rtmclient.WithRetries(0), rtmclient.WithHTTPClient(&http.Client{Transport: rt}))
	return si, nil
}

// stats reads the server's /statz counters.
func (si *serveInstance) stats() (*server.Stats, error) {
	res, err := http.Get(si.base + "/statz")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// stop drains the service, closes its listener and connections and
// waits for the serving goroutine to end.
func (si *serveInstance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := si.srv.Drain(ctx)
	serr := si.hs.Shutdown(ctx)
	si.trans.CloseIdleConnections()
	if err := <-si.done; err != http.ErrServerClosed {
		return err
	}
	if derr != nil {
		return derr
	}
	return serr
}

// replay sends reqs one after another, each as soon as the previous
// one returned.
func (si *serveInstance) replay(traces []serveTrace, reqs []serveRequest, clock func() time.Duration, tagged bool) []reqResult {
	out := make([]reqResult, len(reqs))
	for i, req := range reqs {
		ctx := context.Background()
		if tagged {
			ctx = context.WithValue(ctx, reqIDKey{}, i)
		}
		out[i] = call(ctx, si.client, clock, traces[req.trace].text, req)
	}
	return out
}

// call sends one request and times it from the caller's side.
func call(ctx context.Context, c *rtmclient.Client, clock func() time.Duration, text string, req serveRequest) reqResult {
	wire := &rtmclient.PlaceRequest{
		Trace:          text,
		Strategy:       string(req.strategy),
		Objective:      req.objective,
		DeadlineMillis: serveDeadline.Milliseconds(),
	}
	r := reqResult{start: clock()}
	r.resp, r.err = c.Place(ctx, wire)
	r.end = clock()
	return r
}

// verify checks one 200 response against an independent replay: the
// placement must be valid for the request's sequence, and its shift
// count must equal placement.ShiftCost's.
func verify(tr serveTrace, req serveRequest, resp *rtmclient.PlaceResponse) error {
	index := map[string]int{}
	for v := 0; v < tr.seq.NumVars(); v++ {
		index[tr.seq.Name(v)] = v
	}
	p := &racetrack.Placement{DBC: make([][]int, len(resp.Placement))}
	for d, names := range resp.Placement {
		for _, name := range names {
			v, ok := index[name]
			if !ok {
				return fmt.Errorf("placement names unknown variable %q", name)
			}
			p.DBC[d] = append(p.DBC[d], v)
		}
	}
	if err := p.Validate(tr.seq, 0); err != nil {
		return err
	}
	shifts, err := racetrack.ShiftCost(tr.seq, p)
	if err != nil {
		return err
	}
	if shifts != resp.Shifts {
		return fmt.Errorf("response says %d shifts, replay says %d", resp.Shifts, shifts)
	}
	if req.objective != "" && (resp.Cost == nil || resp.Cost.Shifts != shifts) {
		return fmt.Errorf("objective %q: response carries no matching cost", req.objective)
	}
	if resp.Strategy != string(req.strategy) {
		return fmt.Errorf("response strategy %q, asked for %q", resp.Strategy, req.strategy)
	}
	return nil
}

// account counts one pass's calls into out — a call that failed, came
// back partial or does not verify counts as failed — and totals the
// shifts and accesses of the verified placements.
func account(out *outcome, traces []serveTrace, reqs []serveRequest, results []reqResult) (shifts, accesses int64) {
	for k, r := range results {
		out.attempted++
		req := reqs[k]
		tr := traces[req.trace]
		if !r.ok() {
			out.fail("request %d: %v", k, r.failure())
			continue
		}
		if err := verify(tr, req, r.resp); err != nil {
			out.fail("request %d: %v", k, err)
			continue
		}
		shifts += r.resp.Shifts
		accesses += int64(tr.seq.Len())
	}
	return shifts, accesses
}

func runServe(o options, out *outcome) error {
	var (
		traces []serveTrace
		reqs   []serveRequest
	)
	setup, err := timedSetup(o, func() error {
		var err error
		if traces, reqs, err = serveMix(o.seed, serveRequests); err != nil {
			return err
		}
		// Warm-up: a throwaway instance serves the head of the list.
		dir, err := os.MkdirTemp(o.work, "warm-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		si, err := startServe(o, dir, nil, nil)
		if err != nil {
			return err
		}
		rec := newRecorder()
		si.replay(traces, reqs[:100], rec.now, false)
		return si.stop()
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	counts := map[byte]int{}
	for _, r := range reqs {
		counts[r.class]++
	}
	out.note("serve-mix: %d requests a pass over %d traces: %d fresh, %d new strategy/objective, %d repeats; one caller",
		len(reqs), len(traces), counts['f'], counts['n'], counts['r'])

	var (
		latency          [][]float64
		rates, tracedR   []float64
		shifts, accesses int64 = -1, -1
		layers, samples        = map[string][]float64{}, map[string][]float64{}
		rec                    = newRecorder()
	)
	err = passes(o, out, setup, func(i int) (time.Duration, error) {
		traced := o.trace && i%2 == 1
		dir := filepath.Join(o.work, fmt.Sprintf("cache-%d", i))
		defer os.RemoveAll(dir)
		var pt *placeTracer
		var progress func(racetrack.ProgressEvent)
		var wrap func(http.Handler) http.Handler
		if traced {
			pt = &placeTracer{rec: rec, starts: map[placeKey]time.Duration{}}
			progress, wrap = pt.event, pt.wrap
		}
		start := time.Now()
		si, err := startServe(o, dir, progress, wrap)
		if err != nil {
			return 0, err
		}
		results := si.replay(traces, reqs, rec.now, traced)
		wall := time.Since(start)
		st, err := si.stats()
		if err != nil {
			return 0, err
		}
		if err := si.stop(); err != nil {
			return 0, err
		}

		passShifts, passAccesses := account(out, traces, reqs, results)
		if shifts >= 0 && (passShifts != shifts || passAccesses != accesses) {
			out.fail("serve pass %d: %d shifts over %d accesses; pass 0: %d over %d", i, passShifts, passAccesses, shifts, accesses)
		}
		shifts, accesses = passShifts, passAccesses
		rate := float64(len(reqs)) / wall.Seconds()
		if !traced {
			rates = append(rates, rate)
			lat := make([]float64, len(results))
			for k, r := range results {
				lat[k] = r.sample()
			}
			latency = append(latency, lat)
			return wall, nil
		}
		tracedR = append(tracedR, rate)
		pt.layers(out, layers, samples, traces, reqs, results, st)
		return wall, nil
	})
	if err != nil {
		return err
	}
	out.note("per-pass wall rates: %.4g requests/s", rates)
	out.e2e["shifts_per_access"] = float64(shifts) / float64(accesses)
	out.note("serve-mix: %d untraced passes, %d shifts over %d accesses per pass", len(rates), shifts, accesses)
	if !o.trace {
		// The caller's requests tile the replay, one after another.
		typical, err := latencyMetrics(out, "request", latency)
		out.e2e["requests_per_s"] = float64(len(reqs)) / typical
		out.e2e["accesses_per_s"] = float64(accesses) / typical
		return err
	}
	for k, vs := range layers {
		out.layer[k] = median(vs)
	}
	// Latency percentiles pool every traced pass's requests: one pass
	// places fewer than the 1000 calls a p99 needs.
	for _, m := range []struct {
		pool string
		p    float64
	}{
		{"server.handler", 50}, {"server.handler", 99}, {"rtmclient.transport", 50},
		{"racetrack.place", 50}, {"racetrack.place", 99}, {"server.pre_place", 50}, {"server.pre_place", 99},
	} {
		name := fmt.Sprintf("%s_p%g_ms", m.pool, m.p)
		v, err := percentile(samples[m.pool], m.p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out.layer[name] = v
	}
	parse, fp, kb, err := traceLayers(traces)
	if err != nil {
		return err
	}
	out.layer["trace.parse_p50_us"] = parse
	out.layer["trace.fingerprint_p50_us"] = fp
	out.layer["placement.kernel_build_s"] = kb
	overhead(out, "requests/s", rates, tracedR)
	return rec.writeJSONL(spanFile(o))
}

// traceLayers times the request traces' text parse and fingerprint, one
// trace at a time, and NewCostKernel over all of them.
func traceLayers(traces []serveTrace) (parseP50, fpP50, kernelS float64, err error) {
	var parse, fp []float64
	for _, tr := range traces {
		t0 := time.Now()
		seq, err := racetrack.ParseSequence(tr.text)
		t1 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		if seq.Fingerprint() != tr.fp {
			return 0, 0, 0, fmt.Errorf("fingerprint of a re-parsed trace changed")
		}
		t2 := time.Now()
		parse = append(parse, float64(t1.Sub(t0))/float64(time.Microsecond))
		fp = append(fp, float64(t2.Sub(t1))/float64(time.Microsecond))
	}
	seqs := make([]*racetrack.Sequence, len(traces))
	for i, tr := range traces {
		seqs[i] = tr.seq
	}
	return median(parse), median(fp), kernelBuild(seqs), nil
}

// placeKey matches a Lab.Place start event to its done event.
type placeKey struct {
	seq      *racetrack.Sequence
	strategy racetrack.Strategy
}

// A placeTracer records a traced pass's server-side spans: the handler
// (through a wrapper around the service's handler) and Lab.Place
// (through the Lab's progress start/done events).
type placeTracer struct {
	rec    *recorder
	mu     sync.Mutex
	starts map[placeKey]time.Duration
	places []placeSpan
	hand   []handlerSpan
}

type placeSpan struct {
	key        placeKey
	start, end time.Duration
}

type handlerSpan struct {
	req        int
	start, end time.Duration
}

func (pt *placeTracer) event(ev racetrack.ProgressEvent) {
	t := pt.rec.now()
	k := placeKey{ev.Sequence, ev.Strategy}
	if !ev.Done {
		pt.starts[k] = t
		return
	}
	pt.places = append(pt.places, placeSpan{key: k, start: pt.starts[k], end: t})
	delete(pt.starts, k)
}

func (pt *placeTracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := pt.rec.now()
		h.ServeHTTP(w, r)
		end := pt.rec.now()
		if id, err := strconv.Atoi(r.Header.Get(reqHeader)); err == nil {
			pt.mu.Lock()
			pt.hand = append(pt.hand, handlerSpan{req: id, start: start, end: end})
			pt.mu.Unlock()
		}
	})
}

// layers turns one traced pass into spans — client, handler under it,
// Lab.Place under the handler — and adds the pass's per-layer figures
// to acc and its per-request latencies (ms) to samples.
// A Place span is attached to the handler of the same trace and
// strategy that overlaps it most (a coalesced follower waits on its
// leader's Place, which then counts in the follower's handler self
// time).
func (pt *placeTracer) layers(out *outcome, acc, samples map[string][]float64, traces []serveTrace, reqs []serveRequest, results []reqResult, st *server.Stats) {
	type key struct {
		fp       uint64
		strategy racetrack.Strategy
	}
	var spans []span
	clientOf := make([]int, len(results))
	for i, r := range results {
		clientOf[i] = len(spans)
		spans = append(spans, span{Name: "rtmclient.place", Start: r.start, End: r.end, Parent: -1, Req: int64(i)})
	}
	handlerOf := make([]int, len(results))
	for i := range handlerOf {
		handlerOf[i] = -1
	}
	byKey := map[key][]int{}
	var handlerMS []float64
	for _, h := range pt.hand {
		handlerOf[h.req] = len(spans)
		k := key{traces[reqs[h.req].trace].fp, reqs[h.req].strategy}
		byKey[k] = append(byKey[k], len(spans))
		spans = append(spans, span{Name: "server.handler", Start: h.start, End: h.end, Parent: clientOf[h.req], Req: int64(h.req)})
		handlerMS = append(handlerMS, float64(h.end-h.start)/float64(time.Millisecond))
	}
	fps := map[*racetrack.Sequence]uint64{}
	var placeMS []float64
	for _, p := range pt.places {
		fp, ok := fps[p.key.seq]
		if !ok {
			fp = p.key.seq.Fingerprint()
			fps[p.key.seq] = fp
		}
		parent, best := -1, time.Duration(0)
		for _, h := range byKey[key{fp, p.key.strategy}] {
			if ov := min(p.end, spans[h].End) - max(p.start, spans[h].Start); ov > best {
				parent, best = h, ov
			}
		}
		req := int64(-1)
		if parent >= 0 {
			req = spans[parent].Req
		}
		spans = append(spans, span{Name: "racetrack.place", Start: p.start, End: p.end, Parent: parent, Req: req})
		placeMS = append(placeMS, float64(p.end-p.start)/float64(time.Millisecond))
	}
	self := selfTimes(spans)
	var transport, prePlace, placeSelf, latency []float64
	unmatched := 0
	for i := range results {
		h := handlerOf[i]
		if h < 0 {
			unmatched++
			continue
		}
		c := clientOf[i]
		transport = append(transport, float64(self[c])/float64(time.Millisecond))
		prePlace = append(prePlace, float64(self[h])/float64(time.Millisecond))
		// The request's Place time is its handler's duration minus the
		// handler's self time.
		placeSelf = append(placeSelf, float64(spans[h].dur()-self[h])/float64(time.Millisecond))
		latency = append(latency, float64(spans[c].dur())/float64(time.Millisecond))
	}
	for _, s := range spans {
		pt.rec.add(s)
	}
	add := func(k string, v float64) { acc[k] = append(acc[k], v) }
	pool := func(k string, xs []float64) { samples[k] = append(samples[k], xs...) }
	pool("server.handler", handlerMS)
	pool("rtmclient.transport", transport)
	pool("racetrack.place", placeMS)
	pool("server.pre_place", prePlace)
	if st.DiskCache != nil {
		add("diskcache.hit_ratio", ratio(st.DiskCache.Hits, st.DiskCache.Hits+st.DiskCache.Misses))
		add("diskcache.writes", float64(st.DiskCache.Writes))
	}
	add("racetrack.kernel_cache_hit_ratio", ratio(st.KernelCacheHits, st.KernelCacheHits+st.KernelCacheMisses))
	add("server.coalesced_frac", ratio(st.Coalesced, st.Requests))
	add("server.shed_frac", ratio(st.Shed, st.Requests))
	// The request at the median latency, split into its three self
	// times (they add up to its latency by construction).
	mid := 0
	if n := len(latency); n > 0 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return latency[order[a]] < latency[order[b]] })
		mid = order[n/2]
	}
	if len(latency) > 0 {
		out.note("traced pass: %d requests (%d without a handler span), %d Place calls; median request %.4f ms = client %.4f + handler %.4f + Lab.Place %.4f; p50s: client %.4f, handler %.4f, Lab.Place %.4f ms",
			len(results), unmatched, len(placeMS), latency[mid], transport[mid], prePlace[mid], placeSelf[mid],
			median(transport), median(prePlace), median(placeSelf))
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
