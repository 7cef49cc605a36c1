package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source. Tests substitute a fake
// clock to stage a stall without sleeping.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

// wallClock measures from t0.
type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// shot is one scheduled request of an open-loop phase.
type shot struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// latency is measured from when the request was due, not from when it
// was sent, so a stall also charges the requests queued behind it.
func (s shot) latency() time.Duration { return s.Done - s.Due }

// phaseResult is what one open-loop phase observed.
type phaseResult struct {
	Rate  float64
	Shots []shot
	// Lag holds, for each request a worker was free to send before it
	// was due, how late the send was: the generator's own error.
	Lag []time.Duration
	// BacklogMax is the most requests that were due but not yet sent
	// at any send; BacklogTail is the most in the last tenth of the
	// schedule, which stays small unless the backlog grows.
	BacklogMax, BacklogTail int
}

// openLoop sends n requests due at start + i/rate over workers
// connections. A worker takes the next request in schedule order,
// sleeps until it is due if it is early, and sends it at once if it is
// late. send(w, i) performs request i on worker w's connection and
// returns the check of its answer, which runs after the response time
// is taken. Requests never wait for earlier
// replies beyond the workers being busy, so a slow server meets a
// growing queue, not less load.
func openLoop(clk clock, start time.Duration, rate float64, n, workers int, send func(w, i int) func() bool) phaseResult {
	res := phaseResult{Rate: rate, Shots: make([]shot, n)}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	due := func(i int) time.Duration { return start + time.Duration(float64(i)/rate*float64(time.Second)) }
	tail := n - n/10
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := due(i)
				now := clk.Now()
				early := now < d
				backlog := 0
				if early {
					clk.SleepUntil(d)
				} else {
					// Requests 0..i-1 are taken; those due by now
					// and not yet taken, i included, are the backlog.
					dueCount := int(math.Floor(float64(now-start)*rate/float64(time.Second))) + 1
					if dueCount > n {
						dueCount = n
					}
					backlog = dueCount - i
				}
				sent := clk.Now()
				check := send(w, i)
				done := clk.Now()
				ok := check()
				mu.Lock()
				res.Shots[i] = shot{Due: d, Sent: sent, Done: done, OK: ok}
				if early {
					res.Lag = append(res.Lag, sent-d)
				}
				if backlog > res.BacklogMax {
					res.BacklogMax = backlog
				}
				if i >= tail && backlog > res.BacklogTail {
					res.BacklogTail = backlog
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return res
}

// latencies returns the phase's request latencies in milliseconds,
// sorted.
func (p phaseResult) latencies() []float64 {
	out := make([]float64, len(p.Shots))
	for i, s := range p.Shots {
		out[i] = ms(s.latency())
	}
	return sorted(out)
}

// meets reports whether the phase met a p99 latency limit without a
// growing backlog: its p99 is within the limit, and the queue in the
// last tenth of the schedule holds less than one limit's worth of
// requests. A failed request counts as missing the limit.
func (p phaseResult) meets(limitMS float64) bool {
	lat := make([]float64, len(p.Shots))
	for i, s := range p.Shots {
		lat[i] = ms(s.latency())
		if !s.OK {
			lat[i] = math.Inf(1)
		}
	}
	lat = sorted(lat)
	return percentile(lat, 0.99) <= limitMS && float64(p.BacklogTail) < math.Max(2, p.Rate*limitMS/1e3)
}

// closedLoop sends requests 0, 1, ... back to back on every worker,
// each worker waiting for its reply before sending again, until d has
// passed or n requests are taken. It returns when each request that
// passed its checks completed, in order, and how many failed.
func closedLoop(workers int, d time.Duration, n int, send func(w, i int) func() bool) (done []time.Duration, failed int) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				check := send(w, i)
				at := time.Since(start)
				ok := check()
				mu.Lock()
				if ok {
					done = append(done, at)
				} else {
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(done, func(a, b int) bool { return done[a] < done[b] })
	return done, failed
}

// windowRate splits [0, d) into k equal windows and returns the median
// of the completions per second in each, which a short stall of the
// host moves less than the overall mean.
func windowRate(done []time.Duration, d time.Duration, k int) float64 {
	counts := make([]float64, k)
	w := d / time.Duration(k)
	for _, t := range done {
		if i := int(t / w); i < k {
			counts[i]++
		}
	}
	return median(sorted(counts)) / w.Seconds()
}
