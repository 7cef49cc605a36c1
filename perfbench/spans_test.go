package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus the union of its children's
// intervals: overlapping children count once, a child reaching past
// its parent counts only inside it, and grandchildren only reduce
// their own parent.
func TestSelfTimesNested(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms},
		{Name: "a.inner", Parent: 1, Start: 12 * ms, End: 15 * ms},
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms},
		{Name: "other", Parent: -1, Start: 200 * ms, End: 210 * ms},
	}
	want := []time.Duration{50 * ms, 17 * ms, 30 * ms, 3 * ms, 30 * ms, 10 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// A nil tracer records nothing but still times the call.
func TestNilTracerCall(t *testing.T) {
	var tr *tracer
	d, err := tr.call("layer.x", 1, tr.begin("op", 1, -1), func() error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || d < time.Millisecond {
		t.Fatalf("call = %v, %v", d, err)
	}
}

func TestTracerCallRecordsSpan(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 7, -1)
	var sink []byte
	if _, err := tr.call("layer.x", 7, root, func() error {
		sink = make([]byte, 1<<20)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	_ = sink
	if len(tr.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(tr.spans))
	}
	s := tr.spans[1]
	if s.Name != "layer.x" || s.Parent != root || s.Op != 7 || s.End < s.Start || s.AllocBytes < 1<<20 {
		t.Errorf("span %+v", s)
	}
}
