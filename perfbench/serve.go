package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The serve-mixed workload starts serve.New in process on a loopback
// listener and drives it with one open-loop generator over at most two
// connections (the host's CPU count, capped at two): a low-rate and a
// high-rate phase at fixed rates, then a short ladder of three rising
// rates that finds the highest one meeting the p99 limit. It is the
// only workload that reaches serve's response cache, keyed workspace
// and /metrics. Warm hits set the median; cold keyed loads (synth),
// scrapes and renders after a reload (report) set the tail.
//
// No traffic log of this server exists, so the request mix
// (classWeights) and the scrape and reload cadences are assumptions,
// not measurements. The rates have a measured basis: like SPECpower's
// graduated loads they are fixed fractions of a calibrated maximum,
// serveKneeRPS.
const (
	// serveKneeRPS is the highest rate at which this mix meets the
	// p99 limit (slo_max_rps) on the reference host, a 2-vCPU x86-64
	// VM: over ten seeds, a ladder of ×1.6 rungs found a median of
	// 3335 requests/s (range 1949-4116). The fixed phases and the
	// ladder rungs are fractions of it, and stay fixed when the server
	// gets faster, so that runs of different revisions meet the same
	// offered load.
	serveKneeRPS = 3300.0
	// serveLimitMS is the p99 latency limit of the rate ladder, about
	// ten times the cold work of one keyed load or post-reload render,
	// so the ladder fails on queueing, not on one slow request.
	serveLimitMS = 100.0
	// serveWorkspaceCap is the server's keyed-scenario LRU bound; the
	// mix addresses serveKeys keys, a working set larger than it.
	serveWorkspaceCap = 8
	serveKeys         = 12
	serveHotKeys      = 6
	// serveFleetServers sizes the ?servers= keyed scenarios.
	serveFleetServers = 400
	// serveReloadEvery and serveScrapeEvery are the schedule time
	// between reloads and between /metrics scrapes. Both are far
	// shorter than any real cadence (Prometheus scrapes every minute by
	// default): they are compressed so that a phase of a few seconds
	// holds tens of scrapes and several reloads, whose cold work, with
	// the cold keyed loads, sets the phase's p99.
	serveReloadEvery = time.Second
	serveScrapeEvery = 250 * time.Millisecond
	// serveMinSamples gives each fixed-rate phase enough requests for a
	// p99 with ten samples above it.
	serveMinSamples = 1000
	// serveCapacityShare is the closed-loop capacity phase's share of
	// the run, measured in serveCapacityWindows windows.
	serveCapacityShare   = 0.15
	serveCapacityWindows = 8
	serveCapacityMax     = 20000
	// serveHeapWindow is the span of each heap-peak window.
	serveHeapWindow = 500 * time.Millisecond
)

// servePhase is a fixed-rate phase: its rate, and its share of the
// run's seconds.
type servePhase struct {
	name  string
	rate  float64
	share float64
}

// The fixed phases run at 5% and 20% of serveKneeRPS. At 10% and 30%
// the median latency spread several times as widely across runs on
// the reference host.
var servePhases = []servePhase{{"low", 0.05 * serveKneeRPS, 0.35}, {"high", 0.20 * serveKneeRPS, 0.35}}

// ladderRungs are the ladder's rates as fractions of serveKneeRPS,
// bracketing the knee's range on the reference host. Each rung is
// ladderRungShare of the run long, and long enough for serveMinSamples;
// the ladder stops at the first rung that misses the limit.
var ladderRungs = []float64{0.6, 1.0, 1.4}

const ladderRungShare = 0.05

// Request classes, in the order of the per-class metrics.
const (
	classReport = iota
	classReport304
	classFigure
	classSummary
	classAPIMetrics
	classServers
	classScrape
	classKeyed
	classReload
	numClasses
)

var classNames = [numClasses]string{"report", "report_304", "figure", "summary", "api_metrics", "servers", "scrape", "keyed", "reload"}

// classWeights is the request mix per 100 requests, an assumption: warm
// reads of the report, figures, summary and metric endpoints make up
// half, revalidations a seventh, and the rest are /servers filters and
// keyed scenarios, enough of each for its own per-class p99 in a traced
// run. Scrapes and reloads are not drawn but scheduled, every
// serveScrapeEvery and serveReloadEvery of the schedule.
var classWeights = [numClasses]int{14, 14, 16, 8, 12, 28, 0, 8, 0}

// request is one scheduled request of the mix.
type request struct {
	class int
	path  string
	// unknown marks a /servers filter on an architecture the corpus
	// does not have: the answer must be empty.
	unknown bool
	// want is the servers filter the answer must satisfy.
	year int
	arch string
}

// serveState is the benchmark's view of the server, used to check
// every answer.
type serveState struct {
	base    string
	clients []*http.Client
	// seeds are the two corpora the periodic reloads alternate
	// between; digests and etags are their reports'.
	seeds   [2]int64
	digests [2]string
	etags   [2]string
	// epoch counts reload starts and ends: odd while a reload is in
	// flight, so a request that saw one even epoch throughout knows
	// which corpus served it.
	epoch    atomic.Int64
	reloadMu sync.Mutex

	mu      sync.Mutex
	keyed   map[string]string
	logged  int
	logSink io.Writer
}

func runServeMixed(b *bench) (*outcome, error) {
	o := newOutcome()
	seeds := [2]int64{b.seed, b.seed + 1}
	var digests [2]string
	for k, s := range seeds {
		rp, err := synth.NewRepository(synth.Config{Seed: s})
		if err != nil {
			return nil, err
		}
		text, err := report.Full(rp.Valid(), report.Options{Seed: s})
		if err != nil {
			return nil, err
		}
		digests[k] = digestOf(text)
	}
	workers := runtime.NumCPU()
	if workers > 2 {
		workers = 2
	}

	var rig *serveRig
	var st *serveState
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		rig, st, err = startServe(b, seeds, digests, workers)
		if err != nil {
			if rig != nil {
				rig.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rig.close()
	o.e2e["setup_s"] = value{median(sorted(setups)), "s", len(setups)}

	combos, err := serverFilters(seeds[0])
	if err != nil {
		return nil, err
	}
	mixes := newMixer(b.seed, combos)
	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	heap := watchHeap(serveHeapWindow)
	type measured struct {
		mix []request
		res phaseResult
		// traced marks the requests of a traced phase that became
		// spans; nil in an untraced phase.
		traced []bool
	}
	// coin picks the traced half of a traced phase's requests. It is
	// drawn per request, apart from the mix's own schedule, so both
	// halves get every class, scrapes and reloads included.
	coin := rand.New(rand.NewSource(b.seed))
	// run drives one open-loop phase; in a traced phase a random half of
	// the requests become spans under the phase's span, their op id the
	// request's number in the run.
	run := func(name string, rate float64, dur time.Duration, tr *tracer) measured {
		n := int(rate * dur.Seconds())
		m := measured{mix: mixes.phase(n, rate)}
		clk := wallClock{t0: time.Now()}
		first := int64(o.attempted)
		phaseSpan := tr.begin("loadgen."+name, first, -1)
		m.res = openLoop(clk, 0, rate, n, workers, func(w, i int) func() bool { return st.send(w, m.mix[i]) })
		tr.end(phaseSpan)
		if tr != nil {
			m.traced = make([]bool, n)
			off := tr.since(clk.t0)
			for i, s := range m.res.Shots {
				if m.traced[i] = coin.Intn(2) == 0; m.traced[i] {
					tr.add(span{Name: "serve." + classNames[m.mix[i].class], Op: first + int64(i), Parent: phaseSpan, Start: off + s.Sent, End: off + s.Done})
				}
			}
		}
		o.attempted += n
		for _, s := range m.res.Shots {
			if !s.OK {
				o.failed++
			}
		}
		return m
	}

	var fixed []measured
	if b.tr == nil {
		for _, p := range servePhases {
			m := run(p.name, p.rate, phaseDuration(b.seconds, p), nil)
			fixed = append(fixed, m)
			lat := m.res.latencies()
			o.e2e["p50_ms."+p.name] = value{percentile(lat, 0.5), "ms", len(lat)}
			o.e2e["p99_ms."+p.name] = value{percentile(lat, 0.99), "ms", len(lat)}
			if !tailSupported(len(lat), 0.99) {
				b.logf("phase %s: %d samples do not support a p99", p.name, len(lat))
			}
		}
		// Capacity: the warm mix sent back to back, one request in
		// flight per connection, before the ladder's overload can leave
		// anything behind. The cold work (keyed loads, reloads,
		// scrapes) comes in bursts that a few seconds of closed loop
		// sample too unevenly to give a steady rate; it is measured by
		// the tail latencies and the ladder instead.
		capTime := time.Duration(float64(b.seconds) * serveCapacityShare)
		// Draw more requests than the host can answer in capTime.
		capMix := mixes.phase(int(serveCapacityMax*capTime.Seconds()), 0)
		done, bad := closedLoop(workers, capTime, len(capMix), func(w, i int) func() bool { return st.send(w, capMix[i]) })
		o.attempted += len(done) + bad
		o.failed += bad
		o.e2e["ops_per_s"] = value{windowRate(done, capTime, serveCapacityWindows), "1/s", len(done)}
		time.Sleep(100 * time.Millisecond)
		// The ladder starts above the high phase, which is its first
		// rung together with the low phase.
		rungs := []phaseResult{fixed[0].res, fixed[1].res}
		for _, f := range ladderRungs {
			rate := f * serveKneeRPS
			d := phaseDuration(b.seconds, servePhase{rate: rate, share: ladderRungShare})
			time.Sleep(100 * time.Millisecond)
			res := run(fmt.Sprintf("rung%.0f", rate), rate, d, nil).res
			rungs = append(rungs, res)
			if !res.meets(serveLimitMS) {
				break
			}
		}
		slo, note := sloMaxRate(rungs, serveLimitMS)
		o.e2e["slo_max_rps"] = value{slo, "1/s", len(rungs)}
		if note != "" {
			b.logf("%s", note)
		}
	} else {
		// The traced run repeats the fixed-rate phases with half of
		// their requests traced. Spans are built from the requests'
		// own timestamps after each phase, so tracing adds no work on
		// the request path; the difference of the two halves' medians,
		// the tracing overhead, shows any effect it has on the rest.
		for _, p := range servePhases {
			fixed = append(fixed, run(p.name, p.rate, phaseDuration(b.seconds, p), b.tr))
		}
	}
	heap.stop(o)
	after, err := st.scrape()
	if err != nil {
		return nil, err
	}

	// all holds the latencies of every request of the fixed phases, or
	// in the traced run of the traced ones, and untraced the rest.
	var all, untraced []float64
	perClass := make([][]float64, numClasses)
	var lag []float64
	backlog := 0
	for _, m := range fixed {
		for i, s := range m.res.Shots {
			if m.traced != nil && !m.traced[i] {
				untraced = append(untraced, ms(s.latency()))
				continue
			}
			perClass[m.mix[i].class] = append(perClass[m.mix[i].class], ms(s.latency()))
			all = append(all, ms(s.latency()))
		}
		for _, l := range m.res.Lag {
			lag = append(lag, ms(l))
		}
		if m.res.BacklogMax > backlog {
			backlog = m.res.BacklogMax
		}
	}
	all = sorted(all)
	o.e2e["op_p50_ms"] = value{median(all), "ms", len(all)}

	if b.tr != nil {
		o.layers["trace_overhead_frac"] = value{median(all)/median(sorted(untraced)) - 1, "frac", len(all)}
		for c, lat := range perClass {
			s := sorted(lat)
			name := "serve." + classNames[c]
			o.layers[name+".count"] = value{float64(len(s)), "count", 0}
			if len(s) > 0 {
				o.layers[name+".p50_ms"] = value{percentile(s, 0.5), "ms", len(s)}
				o.layers[name+".p99_ms"] = value{percentile(s, 0.99), "ms", len(s)}
			}
		}
		lag = sorted(lag)
		o.layers["loadgen.lag_p99_ms"] = value{percentile(lag, 0.99), "ms", len(lag)}
		o.layers["loadgen.backlog_max"] = value{float64(backlog), "count", 0}
		hits := sumFamily(after, "spec_serve_cache_hits") - sumFamily(before, "spec_serve_cache_hits")
		misses := sumFamily(after, "spec_serve_cache_misses") - sumFamily(before, "spec_serve_cache_misses")
		if hits+misses > 0 {
			o.layers["serve.cache_hit_ratio"] = value{hits / (hits + misses), "frac", 0}
		}
		for _, k := range []string{"loads", "evictions", "coalesced"} {
			f := "spec_workspace_" + k
			o.layers["serve.workspace."+k] = value{sumFamily(after, f) - sumFamily(before, f), "count", 0}
		}
		o.layers["serve.cache_entries_end"] = value{sumFamily(after, "spec_serve_response_cache_entries"), "count", 0}
		o.layers["serve.cache_bytes_end"] = value{sumFamily(after, "spec_serve_response_cache_bytes") / (1 << 20), "MB", 0}
		o.kernels["serve.report.p50_ms"] = "BENCH_serve.json BenchmarkReportWarmHit: 0.022 ms in-process, no listener"
		o.kernels["serve.scrape.p50_ms"] = "BENCH_serve.json BenchmarkMetricsScrapeWarm: 0.217 ms in-process, no listener"
	}

	ratio, err := st.keyedOverUnkeyed()
	if err != nil {
		return nil, err
	}
	o.checks = append(o.checks, check{Name: "serve.keyed_over_unkeyed_warm_hit", Value: ratio, Target: "<= 1.5", Pass: ratio <= 1.5,
		Note: "median warm hit of a resident keyed figure over the same figure unkeyed, one connection"})
	return o, nil
}

// phaseDuration is a fixed-rate phase's or ladder rung's length: its
// share of the run, but never fewer than serveMinSamples requests.
func phaseDuration(seconds time.Duration, p servePhase) time.Duration {
	d := time.Duration(float64(seconds) * p.share)
	if min := time.Duration(float64(serveMinSamples) / p.rate * float64(time.Second)); d < min {
		d = min
	}
	return d
}

// sloMaxRate returns the highest ladder rate meeting the limit. Between
// the last rung that meets it and the first that misses, the rate is
// interpolated linearly in p99 to where the p99 crosses the limit; a
// miss caused by backlog alone gives the passing rung's rate.
func sloMaxRate(rungs []phaseResult, limitMS float64) (float64, string) {
	var pass *phaseResult
	for k := range rungs {
		r := &rungs[k]
		if r.meets(limitMS) {
			if pass == nil || r.Rate > pass.Rate {
				pass = r
			}
			continue
		}
		if pass == nil || r.Rate < pass.Rate {
			continue
		}
		p1 := percentile(pass.latencies(), 0.99)
		p2 := percentile(r.latencies(), 0.99)
		if p2 <= limitMS || p2 <= p1 {
			return pass.Rate, ""
		}
		return pass.Rate + (r.Rate-pass.Rate)*(limitMS-p1)/(p2-p1), ""
	}
	if pass == nil {
		return 0, "no ladder rate met the p99 limit"
	}
	return pass.Rate, fmt.Sprintf("every ladder rung met the limit; slo_max_rps %.0f is a lower bound", pass.Rate)
}

// serveRig is one running server.
type serveRig struct {
	hs     *http.Server
	served chan error
}

// close shuts the server down and waits for its serve loop to end.
func (r *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// startServe is the workload's set-up: build the server, listen on
// loopback, learn both corpora's report ETags through a reload and back,
// and warm every path of the mix once.
func startServe(b *bench, seeds [2]int64, digests [2]string, workers int) (*serveRig, *serveState, error) {
	srv, err := serve.New(serve.Config{Seed: seeds[0], WorkspaceCap: serveWorkspaceCap})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	rig := &serveRig{hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}, served: make(chan error, 1)}
	go func() { rig.served <- rig.hs.Serve(ln) }()

	st := &serveState{base: "http://" + ln.Addr().String(), seeds: seeds, digests: digests, keyed: map[string]string{}, logSink: b.stderr}
	for w := 0; w < workers; w++ {
		st.clients = append(st.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	for _, k := range []int{1, 0} {
		if err := st.reload(0, seeds[k]); err != nil {
			return rig, nil, err
		}
		body, _, etag, err := st.get(0, "/api/v1/report", "", http.StatusOK)
		if err != nil {
			return rig, nil, err
		}
		if got := digestOf(string(body)); got != digests[k] {
			return rig, nil, fmt.Errorf("seed %d: served report digest %s, want %s", seeds[k], got[:12], digests[k][:12])
		}
		st.etags[k] = etag
	}
	st.epoch.Store(0)
	warm := []string{"/api/v1/summary", "/api/v1/metrics/ep", "/api/v1/metrics/ee", "/api/v1/metrics/correlations"}
	for _, id := range report.FigureIDs() {
		warm = append(warm, "/api/v1/figures/"+id)
	}
	for k := 0; k < serveHotKeys; k++ {
		q := "?" + keyQuery(seeds[0], k)
		warm = append(warm, "/api/v1/report"+q, "/api/v1/metrics/ep"+q)
		for _, id := range keyedFigures {
			warm = append(warm, "/api/v1/figures/"+id+q)
		}
	}
	warm = append(warm, "/metrics")
	for _, p := range warm {
		if _, _, _, err := st.get(0, p, "", http.StatusOK); err != nil {
			return rig, nil, err
		}
	}
	return rig, st, nil
}

// get fetches path on worker w's connection and checks the status.
func (st *serveState) get(w int, path, ifNoneMatch string, want ...int) (body []byte, status int, etag string, err error) {
	req, err := http.NewRequest(http.MethodGet, st.base+path, nil)
	if err != nil {
		return nil, 0, "", err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	return st.do(w, req, want...)
}

func (st *serveState) do(w int, req *http.Request, want ...int) (body []byte, status int, etag string, err error) {
	resp, err := st.clients[w].Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, "", err
	}
	for _, s := range want {
		if resp.StatusCode == s {
			return body, s, resp.Header.Get("ETag"), nil
		}
	}
	return body, resp.StatusCode, "", fmt.Errorf("%s %s: status %d, want %v", req.Method, req.URL.Path, resp.StatusCode, want)
}

// reload swaps the server to seed, bracketing the call in two epoch
// steps so concurrent checks know a swap may be under way.
func (st *serveState) reload(w int, seed int64) error {
	req, err := http.NewRequest(http.MethodPost, st.base+"/api/v1/reload?seed="+strconv.FormatInt(seed, 10), nil)
	if err != nil {
		return err
	}
	st.epoch.Add(1)
	body, _, _, err := st.do(w, req, http.StatusOK)
	st.epoch.Add(1)
	if err != nil {
		return err
	}
	var ack struct {
		Seed int64 `json:"seed"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("reload answer: %w", err)
	}
	if ack.Seed != seed {
		return fmt.Errorf("reload answered seed %d, want %d", ack.Seed, seed)
	}
	return nil
}

// answer is a response as the generator received it, with the reload
// epochs seen before sending and after receiving.
type answer struct {
	body   []byte
	status int
	err    error
	e1, e2 int64
}

// send performs request r on worker w's connection and returns the
// check of its answer, which the generator runs after it has taken the
// response time.
func (st *serveState) send(w int, r request) func() bool {
	if r.class == classReload {
		err := st.reloadNext(w)
		return func() bool { return st.note(r, err) }
	}
	a := answer{e1: st.epoch.Load()}
	etag := ""
	want := []int{http.StatusOK}
	if r.class == classReport304 {
		etag = st.etags[(a.e1/2)%2]
		want = append(want, http.StatusNotModified)
	}
	a.body, a.status, _, a.err = st.get(w, r.path, etag, want...)
	a.e2 = st.epoch.Load()
	return func() bool { return st.note(r, st.check(r, a)) }
}

// note logs the first failed checks and reports whether err is nil.
func (st *serveState) note(r request, err error) bool {
	if err == nil {
		return true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.logged < 20 {
		fmt.Fprintf(st.logSink, "perfbench: %s %s: %v\n", classNames[r.class], r.path, err)
	}
	st.logged++
	return false
}

// reloadNext swaps the server to the other corpus.
func (st *serveState) reloadNext(w int) error {
	st.reloadMu.Lock()
	defer st.reloadMu.Unlock()
	return st.reload(w, st.seeds[(st.epoch.Load()/2+1)%2])
}

// check verifies one answer of the mix.
func (st *serveState) check(r request, a answer) error {
	if a.err != nil {
		return a.err
	}
	switch r.class {
	case classReport, classReport304:
		if a.status == http.StatusNotModified {
			// The server only answers 304 to its own current ETag.
			return nil
		}
		stable := a.e1 == a.e2 && a.e1%2 == 0
		if r.class == classReport304 && stable {
			return errors.New("revalidation with the current ETag answered 200")
		}
		got := digestOf(string(a.body))
		if stable {
			if got != st.digests[(a.e1/2)%2] {
				return fmt.Errorf("report digest %s is not the current corpus's", got[:12])
			}
			return nil
		}
		if got != st.digests[0] && got != st.digests[1] {
			return fmt.Errorf("report digest %s matches neither corpus", got[:12])
		}
		return nil
	case classScrape:
		fams, err := metrics.Parse(a.body)
		if err != nil {
			return fmt.Errorf("scrape lint: %w", err)
		}
		if metrics.Find(fams, "spec_serve_requests") == nil {
			return errors.New("scrape lacks spec_serve_requests")
		}
		return nil
	case classServers:
		var rows []struct {
			Year     int    `json:"hw_avail_year"`
			Family   string `json:"family"`
			Codename string `json:"codename"`
		}
		if err := json.Unmarshal(a.body, &rows); err != nil {
			return err
		}
		if r.unknown && len(rows) > 0 {
			return fmt.Errorf("unknown architecture matched %d servers", len(rows))
		}
		for _, row := range rows {
			if row.Year != r.year || (!strings.EqualFold(row.Family, r.arch) && !strings.EqualFold(row.Codename, r.arch)) {
				return fmt.Errorf("row %d/%s/%s outside the filter", row.Year, row.Family, row.Codename)
			}
		}
		return nil
	case classKeyed:
		if strings.Contains(r.path, "/metrics/") && !json.Valid(a.body) {
			return errors.New("keyed answer is not JSON")
		}
		// Eviction is identity-free: a key reloaded after eviction
		// must answer byte-identically.
		got := digestOf(string(a.body))
		st.mu.Lock()
		defer st.mu.Unlock()
		if prev, ok := st.keyed[r.path]; ok && prev != got {
			return fmt.Errorf("keyed answer changed: %s, first %s", got[:12], prev[:12])
		}
		st.keyed[r.path] = got
		return nil
	default:
		if r.class != classFigure && !json.Valid(a.body) {
			return errors.New("answer is not JSON")
		}
		if len(bytes.TrimSpace(a.body)) == 0 {
			return errors.New("empty answer")
		}
		return nil
	}
}

// scrape reads the server's own /metrics outside the schedule.
func (st *serveState) scrape() ([]metrics.Family, error) {
	body, _, _, err := st.get(0, "/metrics", "", http.StatusOK)
	if err != nil {
		return nil, err
	}
	return metrics.Parse(body)
}

// sumFamily adds up every sample of a family (0 when absent).
func sumFamily(fams []metrics.Family, name string) float64 {
	f := metrics.Find(fams, name)
	if f == nil {
		return 0
	}
	var sum float64
	for _, s := range f.Samples {
		sum += s.Value
	}
	return sum
}

// keyedOverUnkeyed times warm hits of one figure with and without a
// resident corpus key, alternating on one connection, and returns the
// ratio of the medians.
func (st *serveState) keyedOverUnkeyed() (float64, error) {
	const n = 300
	unkeyed := "/api/v1/figures/3"
	keyed := unkeyed + "?" + keyQuery(st.seeds[0], 0)
	if _, _, _, err := st.get(0, keyed, "", http.StatusOK); err != nil {
		return 0, err
	}
	if _, _, _, err := st.get(0, unkeyed, "", http.StatusOK); err != nil {
		return 0, err
	}
	var a, k []float64
	for i := 0; i < n; i++ {
		for _, p := range []string{unkeyed, keyed} {
			start := time.Now()
			if _, _, _, err := st.get(0, p, "", http.StatusOK); err != nil {
				return 0, err
			}
			if p == keyed {
				k = append(k, ms(time.Since(start)))
			} else {
				a = append(a, ms(time.Since(start)))
			}
		}
	}
	return median(sorted(k)) / median(sorted(a)), nil
}

// keyQuery is the selector of keyed scenario k: four of every six keys
// are other seeds of the paper corpus, the rest small synthetic fleets.
func keyQuery(seed int64, k int) string {
	if k%serveHotKeys < 4 {
		return "seed=" + strconv.FormatInt(seed+100+int64(k), 10)
	}
	return "servers=" + strconv.Itoa(serveFleetServers) + "&seed=" + strconv.FormatInt(seed+200+int64(k), 10)
}

// keyedFigures are the figures keyed requests ask for.
var keyedFigures = []string{"3", "5", "17"}

// serverFilter is one /api/v1/servers?year=&arch= query the corpus can
// answer.
type serverFilter struct {
	year int
	arch string
}

// serverFilters lists the (year, family) pairs present in the corpus,
// in a fixed order.
func serverFilters(seed int64) ([]serverFilter, error) {
	rp, err := synth.NewRepository(synth.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	seen := map[serverFilter]bool{}
	var out []serverFilter
	for _, r := range rp.Valid().All() {
		f := serverFilter{r.HWAvailYear, r.Codename.Family().String()}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Slice(out, func(a, c int) bool {
		if out[a].year != out[c].year {
			return out[a].year < out[c].year
		}
		return out[a].arch < out[c].arch
	})
	return out, nil
}

// mixer draws the request schedule. Class counts are fixed per block of
// 100 requests and only their order is shuffled, and keyed requests
// follow a fixed key rotation, so every seed puts the same amount of
// cold work into a phase.
type mixer struct {
	rng     *rand.Rand
	seed    int64
	filters []serverFilter
	// deck holds the classes left in the current block.
	deck []int
	// keyed and servers count the keyed and /servers requests drawn.
	keyed, servers int
}

func newMixer(seed int64, filters []serverFilter) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(seed)), seed: seed, filters: filters}
}

// phase draws n requests for a phase at rate, with a reload and a scrape
// wherever the schedule crosses a multiple of serveReloadEvery and
// serveScrapeEvery. A rate of zero draws the warm mix: no reloads, no
// scrapes and no keyed loads, only requests a warm server answers from
// its caches.
func (m *mixer) phase(n int, rate float64) []request {
	figs := report.FigureIDs()
	apis := []string{"ep", "ee", "correlations"}
	mix := make([]request, n)
	reloads := int(rate * serveReloadEvery.Seconds())
	scrapes := int(rate * serveScrapeEvery.Seconds())
	for i := range mix {
		switch {
		case reloads > 0 && i%reloads == reloads-1:
			mix[i] = request{class: classReload, path: "/api/v1/reload"}
			continue
		case scrapes > 0 && i%scrapes == scrapes/2:
			mix[i] = request{class: classScrape, path: "/metrics"}
			continue
		}
		if len(m.deck) == 0 {
			for c, w := range classWeights {
				for k := 0; k < w; k++ {
					m.deck = append(m.deck, c)
				}
			}
			m.rng.Shuffle(len(m.deck), func(a, b int) { m.deck[a], m.deck[b] = m.deck[b], m.deck[a] })
		}
		r := request{class: m.deck[len(m.deck)-1]}
		m.deck = m.deck[:len(m.deck)-1]
		switch r.class {
		case classReport, classReport304:
			r.path = "/api/v1/report"
		case classFigure:
			r.path = "/api/v1/figures/" + figs[m.rng.Intn(len(figs))]
		case classSummary:
			r.path = "/api/v1/summary"
		case classAPIMetrics:
			r.path = "/api/v1/metrics/" + apis[m.rng.Intn(len(apis))]
		case classServers:
			// Every tenth filter names an architecture the corpus
			// lacks; each such string is new to the server.
			if m.servers++; m.servers%10 == 0 {
				r.unknown = true
				r.arch = fmt.Sprintf("zz%06x", m.rng.Intn(1<<24))
				r.path = "/api/v1/servers?arch=" + r.arch
			} else {
				f := m.filters[m.rng.Intn(len(m.filters))]
				r.year, r.arch = f.year, f.arch
				r.path = "/api/v1/servers?year=" + strconv.Itoa(f.year) + "&arch=" + url.QueryEscape(f.arch)
			}
		case classKeyed:
			r.path = m.keyedPath(rate <= 0)
		}
		mix[i] = r
	}
	return mix
}

// keyedPath returns the next keyed request. Three of every four go to
// the serveHotKeys hot keys in turn, which therefore stay resident in
// the LRU; the fourth goes to the next of the remaining keys, which
// rotate through the two free slots, so it always misses and loads a
// corpus. In the warm mix every keyed request goes to a hot key.
func (m *mixer) keyedPath(warm bool) string {
	j := m.keyed
	m.keyed++
	h := j - j/4
	if warm {
		h = j
	} else if j%4 == 3 {
		k := serveHotKeys + (j/4)%(serveKeys-serveHotKeys)
		return "/api/v1/metrics/ep?" + keyQuery(m.seed, k)
	}
	q := keyQuery(m.seed, h%serveHotKeys)
	switch (h / serveHotKeys) % 3 {
	case 0:
		return "/api/v1/report?" + q
	case 1:
		return "/api/v1/figures/" + keyedFigures[m.rng.Intn(len(keyedFigures))] + "?" + q
	default:
		return "/api/v1/metrics/ep?" + q
	}
}
