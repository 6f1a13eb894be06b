package main

import (
	"testing"
	"time"
)

func sp(name string, start, end time.Duration, parent int) span {
	return span{Name: name, Start: start, End: end, Parent: parent, Req: -1}
}

func TestSelfTimeNested(t *testing.T) {
	// client [0,100) > handler [10,90) > place [20,50); the place span is
	// the handler's child only, so the client is charged for the
	// handler's whole interval and nothing more.
	spans := []span{
		sp("client", 0, 100, -1),
		sp("handler", 10, 90, 0),
		sp("place", 20, 50, 1),
	}
	got := selfTimes(spans)
	want := []time.Duration{20, 50, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != spans[0].dur() {
		t.Errorf("self times add up to %v, not the root's %v", sum, spans[0].dur())
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children [10,40) and [30,60) overlap by 10: together they cover 50,
	// not 60. A third child reaching past the parent's end is clipped.
	spans := []span{
		sp("root", 0, 100, -1),
		sp("a", 10, 40, 0),
		sp("b", 30, 60, 0),
		sp("c", 90, 120, 0),
	}
	got := selfTimes(spans)
	if got[0] != 100-50-10 {
		t.Errorf("self(root) = %v, want 40", got[0])
	}
	for i := 1; i < len(spans); i++ {
		if got[i] != spans[i].dur() {
			t.Errorf("self(%s) = %v, want its whole duration %v", spans[i].Name, got[i], spans[i].dur())
		}
	}
}

func TestSelfTimeContainedChild(t *testing.T) {
	// A child inside another child adds no coverage.
	spans := []span{
		sp("root", 0, 100, -1),
		sp("a", 10, 80, 0),
		sp("b", 20, 30, 0),
	}
	if got := selfTimes(spans)[0]; got != 30 {
		t.Errorf("self(root) = %v, want 30", got)
	}
}
