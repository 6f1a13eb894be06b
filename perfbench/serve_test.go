package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	racetrack "repro"
	"repro/rtmclient"
)

func oneTrace(t *testing.T, text string) []serveTrace {
	t.Helper()
	seq, err := racetrack.ParseSequence(text)
	if err != nil {
		t.Fatal(err)
	}
	return []serveTrace{{text: text, seq: seq, fp: seq.Fingerprint()}}
}

func TestShedCountsAsFailedAndMissesLatency(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(rtmclient.ErrorResponse{Error: "overloaded"})
	}))
	defer ts.Close()
	c := rtmclient.New(ts.URL, rtmclient.WithRetries(0))
	traces := oneTrace(t, "a b a c! b")
	reqs := []serveRequest{{trace: 0, strategy: racetrack.DMASR}}

	r := call(context.Background(), c, newRecorder().now, traces[0].text, reqs[0])
	var se *rtmclient.StatusError
	if !errors.As(r.err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("call error = %v, want a 429 status error", r.err)
	}
	out := &outcome{}
	if shifts, accesses := account(out, traces, reqs, []reqResult{r}); shifts != 0 || accesses != 0 {
		t.Errorf("a shed request contributed %d shifts over %d accesses", shifts, accesses)
	}
	if out.attempted != 1 || out.failed != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1", out.attempted, out.failed)
	}
	if !math.IsInf(r.sample(), 1) {
		t.Fatalf("a shed request's latency sample is %v, want +Inf (it missed the limit)", r.sample())
	}
	// Sheds sit at the top of the latency distribution: 11 of 1000 push
	// p99 past every limit; 10 do not reach it.
	for sheds, wantInf := range map[int]bool{10: false, 11: true} {
		samples := make([]float64, 1000)
		for i := range samples {
			samples[i] = 0.5
			if i < sheds {
				samples[i] = r.sample()
			}
		}
		p99, err := percentile(samples, 99)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(p99, 1) != wantInf {
			t.Errorf("%d sheds in 1000: p99 = %v", sheds, p99)
		}
	}
}

func TestServedPlacementsVerify(t *testing.T) {
	si, err := startServe(options{}, t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := oneTrace(t, "a b a c! b d a c e! a")
	reqs := []serveRequest{
		{trace: 0, strategy: racetrack.DMASR, class: 'f'},
		{trace: 0, strategy: racetrack.DMAOFU, objective: "energy", class: 'n'},
		{trace: 0, strategy: racetrack.DMASR, class: 'r'},
	}
	results := si.replay(traces, reqs, newRecorder().now, false)
	st, err := si.stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := si.stop(); err != nil {
		t.Fatal(err)
	}
	out := &outcome{}
	shifts, accesses := account(out, traces, reqs, results)
	if out.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", out.failed, out.attempted, out.problems)
	}
	if accesses != 3*int64(traces[0].seq.Len()) || shifts <= 0 {
		t.Errorf("totals %d shifts over %d accesses", shifts, accesses)
	}
	if st.OK != 3 {
		t.Errorf("server counted %d ok requests, want 3", st.OK)
	}

	// A response whose shift count disagrees with the replay fails.
	bad := *results[0].resp
	bad.Shifts++
	if err := verify(traces[0], reqs[0], &bad); err == nil {
		t.Error("a response with a wrong shift count verified")
	}
}

func TestServeMixShape(t *testing.T) {
	traces, reqs, err := serveMix(7, serveRequests)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[byte]int{}
	for _, r := range reqs {
		counts[r.class]++
	}
	frac := func(c byte) float64 { return float64(counts[c]) / float64(len(reqs)) }
	if f := frac('r'); f < 0.65 || f > 0.75 {
		t.Errorf("repeats are %.2f of the list, want about 0.7", f)
	}
	if f := frac('f'); f < 0.15 || f > 0.25 {
		t.Errorf("fresh traces are %.2f of the list, want about 0.2", f)
	}
	if counts['f'] != len(traces) {
		t.Errorf("%d fresh requests for %d traces", counts['f'], len(traces))
	}
	// Another seed renames every variable but keeps the work.
	traces2, reqs2, err := serveMix(8, serveRequests)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces2) != len(traces) || len(reqs2) != len(reqs) {
		t.Fatal("the request pattern changed with the seed")
	}
	for i := range traces {
		if traces[i].fp == traces2[i].fp || traces[i].seq.Len() != traces2[i].seq.Len() {
			t.Fatalf("trace %d: want a renamed trace of the same length", i)
		}
	}
}
