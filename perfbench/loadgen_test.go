package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a request is
// served.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// With one connection and requests due every 10 ms, a 35 ms stall on
// request 2 delays the three requests due during it. Their latency is
// measured from when each was due, so the stall is charged to them
// too, and the generator sees them as a backlog.
func TestOpenLoopTimesFromDue(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	service := []time.Duration{ms, ms, 35 * ms, ms, ms, ms}
	res := openLoop(clk, 0, 100, len(service), 1, func(w, i int) func() bool {
		clk.now += service[i]
		return func() bool { return true }
	})
	wantSent := []time.Duration{0, 10 * ms, 20 * ms, 55 * ms, 56 * ms, 57 * ms}
	wantLat := []time.Duration{ms, ms, 35 * ms, 26 * ms, 17 * ms, 8 * ms}
	for i, s := range res.Shots {
		if s.Due != time.Duration(i)*10*ms || s.Sent != wantSent[i] || s.latency() != wantLat[i] || !s.OK {
			t.Errorf("request %d: due %v sent %v latency %v, want due %v sent %v latency %v",
				i, s.Due, s.Sent, s.latency(), time.Duration(i)*10*ms, wantSent[i], wantLat[i])
		}
	}
	// At 55 ms requests 0-5 are all due and 3-5 not yet sent.
	if res.BacklogMax != 3 {
		t.Errorf("backlog max %d, want 3", res.BacklogMax)
	}
	// The worker was early for requests 1 and 2, and the fake clock
	// wakes exactly on time.
	if len(res.Lag) != 2 || res.Lag[0] != 0 || res.Lag[1] != 0 {
		t.Errorf("lag %v, want two on-time sends", res.Lag)
	}
}

func TestPhaseMeetsLimit(t *testing.T) {
	ms := time.Millisecond
	p := phaseResult{Rate: 100}
	for i := 0; i < 1000; i++ {
		p.Shots = append(p.Shots, shot{Due: 0, Done: 5 * ms, OK: true})
	}
	if !p.meets(10) {
		t.Error("fast phase misses a 10 ms limit")
	}
	// Eleven failures put the p99 past any limit.
	for i := 0; i < 11; i++ {
		p.Shots[i].OK = false
	}
	if p.meets(10) {
		t.Error("phase with 1.1% failures meets the limit")
	}
}

// The SLO rate is interpolated where the p99 crosses the limit between
// the last rung that meets it and the first that misses.
func TestSLOMaxRateInterpolates(t *testing.T) {
	ms := time.Millisecond
	rung := func(rate float64, p99 time.Duration) phaseResult {
		p := phaseResult{Rate: rate}
		for i := 0; i < 1000; i++ {
			p.Shots = append(p.Shots, shot{Done: ms, OK: true})
		}
		for i := 0; i < 11; i++ {
			p.Shots[i].Done = p99
		}
		return p
	}
	got, note := sloMaxRate([]phaseResult{rung(100, 10*ms), rung(200, 30*ms), rung(400, 70*ms)}, 50)
	if got != 300 || note != "" {
		t.Errorf("slo = %v (%q), want 300", got, note)
	}
	got, note = sloMaxRate([]phaseResult{rung(100, 10*ms), rung(200, 30*ms)}, 50)
	if got != 200 || note == "" {
		t.Errorf("slo without a failing rung = %v (%q), want the lower bound 200", got, note)
	}
}

func TestWindowRate(t *testing.T) {
	var done []time.Duration
	// 10 completions in each of three 100 ms windows, one stalled
	// window with 1.
	for w := 0; w < 4; w++ {
		n := 10
		if w == 2 {
			n = 1
		}
		for k := 0; k < n; k++ {
			done = append(done, time.Duration(w)*100*time.Millisecond+time.Duration(k)*time.Millisecond)
		}
	}
	if got := windowRate(done, 400*time.Millisecond, 4); got != 100 {
		t.Errorf("window rate %v, want 100/s", got)
	}
}
