package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval of a traced run: a named stage, its
// start and end relative to the recorder's origin, its parent span (-1
// for a root), the request it belongs to (-1 for none) and a count
// taken at the same boundaries (accesses, cells, ...).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Count  int64         `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// A recorder holds a traced run's spans in memory; they are written out
// once, when the run ends, so recording costs a clock read and an
// append.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// now is the time since the recorder's origin.
func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// add records a finished span and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by its direct children. Overlapping children are
// counted once (the union of their intervals), and a child reaching
// outside its parent is clipped to it; grandchildren are accounted for
// in their own parent, not here.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, end time.Duration
	started := false
	for _, v := range ivs {
		switch {
		case !started || v.a >= end:
			total += v.b - v.a
			end = v.b
			started = true
		case v.b > end:
			total += v.b - end
			end = v.b
		}
	}
	return total
}
