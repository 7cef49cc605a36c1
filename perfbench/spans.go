package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of
// the call. Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string        `json:"name"`
	Op     int64         `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// AllocBytes and Allocs are the heap allocation deltas over the
	// span; only measured for spans that run alone in the process.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Allocs     uint64 `json:"allocs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how untraced code paths run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose times the caller measured itself (the
// open-loop generator records request spans this way).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.t0) }

// allocSamples reads the cumulative heap allocation counters.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readAllocs() (bytes, objects uint64) {
	s := make([]metrics.Sample, len(allocSamples))
	copy(s, allocSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// call runs fn as one call into a layer. On a non-nil tracer it records
// a span carrying the call's heap allocation deltas; either way it
// returns the call's wall time.
func (t *tracer) call(name string, op int64, parent int, fn func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	b0, o0 := readAllocs()
	id := t.begin(name, op, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	b1, o1 := readAllocs()
	t.mu.Lock()
	t.spans[id].AllocBytes, t.spans[id].Allocs = b1-b0, o1-o0
	t.mu.Unlock()
	return d, err
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				if v.hi > curHi {
					curHi = v.hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}

// write dumps the spans, one JSON object per line with its self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	self := selfTimes(t.spans)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			ID int `json:"id"`
			span
			SelfNS time.Duration `json:"self_ns"`
		}{i, s, self[i]}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
