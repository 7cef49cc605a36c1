// Command perfbench is the repository's outside-in benchmark. It drives
// four workloads through the public functions of the internal packages,
// checks the output of every operation, and prints one JSON result as
// the last line of standard output: the end-to-end metrics named in
// BENCHMARK.json, or with -trace 1 the per-layer metrics of a separate
// traced run. Every metric is also printed before that line as a result
// record carrying the host, CPU count, GOMAXPROCS, Go version, source
// revision and seed.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload fleet-sim --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	fleet-sim           the specsim pipeline: synth → placement → trace → fleetsim
//	composition-search  three optimize.OptimizeComposition searches per op
//	corpus-report       dataset.ReadPath of a 100k-server EPFB v2 file, then report.Full
//	serve-mixed         an open-loop request mix against serve.New over loopback
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one benchmark input set. heldOut is a seed kept out of
// tuning, for re-checking later performance claims on unseen inputs.
type workload struct {
	heldOut int64
	run     func(b *bench) (*outcome, error)
}

var workloads = map[string]workload{
	"fleet-sim":          {heldOut: 7919, run: runFleetSim},
	"composition-search": {heldOut: 7927, run: runCompositionSearch},
	"corpus-report":      {heldOut: 7933, run: runCorpusReport},
	"serve-mixed":        {heldOut: 7937, run: runServeMixed},
}

// bench is the per-run environment a workload reads.
type bench struct {
	seed    int64
	seconds time.Duration
	// tr is non-nil in the traced run; workloads then run half their
	// operations traced and half plain, so the difference between the
	// two halves is the tracing overhead.
	tr     *tracer
	out    string
	stderr io.Writer
}

// logf writes a diagnostic line to standard error.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.stderr, "perfbench: "+format+"\n", args...)
}

// value is one measured metric.
type value struct {
	V    float64
	Unit string
	// N is the sample count behind the value (0 when not a sample
	// statistic).
	N int
}

// check is a host-independent target reported as pass or fail.
type check struct {
	Name   string
	Value  float64
	Target string
	Pass   bool
	Note   string
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	e2e, layers       map[string]value
	checks            []check
	// kernels maps a per-layer share metric to the BENCH_*.json kernel
	// number it is printed next to.
	kernels map[string]string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]value{}, layers: map[string]value{}, kernels: map[string]string{}}
}

// fail counts one failed operation or output check.
func (o *outcome) fail(b *bench, err error) {
	o.failed++
	b.logf("check failed: %v", err)
}

// setupReps is how many times each workload sets up per run; setup_s
// is the median.
const setupReps = 5

// minOps is the fewest measured operations a batch run makes, however
// long each one takes.
const minOps = 5

// batchOp runs operation i of a batch workload. It times its own work,
// excluding output checks, and returns the first failed check as err.
// tr is non-nil when the operation is traced.
type batchOp func(i int, tr *tracer) (time.Duration, error)

// runBatch runs a batch workload. It sets up setupReps times, each
// set-up ending in one warm-up operation (index 0) that is checked but
// not measured; setup_s is the median of those set-up times. It then
// runs operations 1, 2, ... until the run's seconds are spent,
// collecting garbage before each one outside the timed region so every
// operation starts from a collected heap, like a fresh CLI process. It fills setup_s, op_p50_ms, ops_per_s and
// heap_peak_mb from the untraced operations.
func (b *bench) runBatch(o *outcome, setup func() error, op batchOp) error {
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		o.attempted++
		if _, err := op(0, nil); err != nil {
			o.fail(b, fmt.Errorf("warm-up op: %w", err))
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = value{median(sorted(setups)), "s", len(setups)}

	heap := watchHeap(0)
	var plain, traced []float64
	deadline := time.Now().Add(b.seconds)
	for i := 1; i <= minOps || time.Now().Before(deadline); i++ {
		runtime.GC()
		var tr *tracer
		if b.tr != nil && i%2 == 0 {
			tr = b.tr
		}
		heap.start()
		d, err := op(i, tr)
		heap.mark()
		o.attempted++
		if err != nil {
			o.fail(b, fmt.Errorf("op %d: %w", i, err))
		}
		if tr != nil {
			traced = append(traced, ms(d))
		} else {
			plain = append(plain, ms(d))
		}
	}
	heap.stop(o)

	s := sorted(plain)
	var total float64
	for _, v := range plain {
		total += v
	}
	o.e2e["op_p50_ms"] = value{median(s), "ms", len(s)}
	o.e2e["ops_per_s"] = value{float64(len(s)) / (total / 1e3), "1/s", len(s)}
	q1, q3 := quartiles(s)
	o.e2e["op_q1_ms"] = value{q1, "ms", len(s)}
	o.e2e["op_q3_ms"] = value{q3, "ms", len(s)}
	if b.tr != nil {
		o.layers["trace_overhead_frac"] = value{median(sorted(traced))/median(s) - 1, "frac", len(traced)}
	}
	return nil
}

// layerStats folds the traced spans into per-layer medians: for every
// span name other than "op", <name>.ms, <name>.alloc_mb and
// <name>.allocs per call, and <name>.share, the layer's self time as a
// share of the traced operations' wall time.
func layerStats(o *outcome, spans []span) {
	self := selfTimes(spans)
	byName := map[string][]int{}
	var opTotal time.Duration
	for i, s := range spans {
		if s.Name == "op" {
			opTotal += s.dur()
			continue
		}
		byName[s.Name] = append(byName[s.Name], i)
	}
	for name, idx := range byName {
		durs := make([]float64, len(idx))
		mbs := make([]float64, len(idx))
		objs := make([]float64, len(idx))
		var selfSum time.Duration
		for k, i := range idx {
			durs[k] = ms(spans[i].dur())
			mbs[k] = float64(spans[i].AllocBytes) / (1 << 20)
			objs[k] = float64(spans[i].Allocs)
			selfSum += self[i]
		}
		n := len(idx)
		o.layers[name+".ms"] = value{median(sorted(durs)), "ms", n}
		o.layers[name+".alloc_mb"] = value{median(sorted(mbs)), "MB", n}
		o.layers[name+".allocs"] = value{median(sorted(objs)), "count", n}
		if opTotal > 0 {
			o.layers[name+".share"] = value{float64(selfSum) / float64(opTotal), "frac", n}
		}
	}
}

// heapPeak samples the bytes in heap objects every 2 ms and
// keeps the peak of each window: one operation of a batch workload
// (open and closed by start and mark), or a fixed span of time.
// heap_peak_mb is the median window peak, so one collection that runs
// late, which a single run-wide maximum would report, moves it little.
type heapPeak struct {
	quit, done chan struct{}
	cur        atomic.Uint64
	mu         sync.Mutex
	peaks      []float64
}

// watchHeap starts sampling. A positive every closes a window at that
// interval; otherwise the caller closes them with mark.
func watchHeap(every time.Duration) *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		windowEnd := time.Now().Add(every)
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.cur.Load()
				if v <= old || h.cur.CompareAndSwap(old, v) {
					break
				}
			}
			if every > 0 && time.Now().After(windowEnd) {
				h.mark()
				windowEnd = windowEnd.Add(every)
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// start opens a window.
func (h *heapPeak) start() { h.cur.Store(0) }

// mark closes the window and records its peak.
func (h *heapPeak) mark() {
	v := h.cur.Swap(0)
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(v)/(1<<20))
	h.mu.Unlock()
}

// stop ends sampling and records heap_peak_mb.
func (h *heapPeak) stop(o *outcome) {
	close(h.quit)
	<-h.done
	o.e2e["heap_peak_mb"] = value{median(sorted(h.peaks)), "MB", len(h.peaks)}
}

// specFile is the benchmark definition, read from the working directory
// (the repository root).
const specFile = "BENCHMARK.json"

// spec is the part of BENCHMARK.json the program reads: which metrics
// the result line carries, and their units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// record is one result line of the ledger, in the field vocabulary of
// the repository's BENCH ledger.
type record struct {
	Workload   string  `json:"workload"`
	Layer      string  `json:"layer"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          int     `json:"n,omitempty"`
	Target     string  `json:"target,omitempty"`
	Pass       *bool   `json:"pass,omitempty"`
	Note       string  `json:"note,omitempty"`
	Host       string  `json:"host"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"GOMAXPROCS"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-sim, composition-search, corpus-report or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "seconds of measured operations per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	commit := fs.String("commit", "unknown", "source revision written into every result record")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the corpus file and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := execute(*name, w, *seed, *seconds, *traceFlag == 1, *commit, *out, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func execute(name string, w workload, seed int64, seconds float64, traced bool, commit, out string, stdout, stderr io.Writer) error {
	sp, err := readSpec(specFile)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b := &bench{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), out: out, stderr: stderr}
	if traced {
		b.tr = newTracer()
	}
	o, err := w.run(b)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.e2e["error_frac"] = value{float64(o.failed) / float64(o.attempted), "frac", o.attempted}
	if traced {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := b.tr.write(path); err != nil {
			return err
		}
		b.logf("%d spans written to %s", len(b.tr.spans), path)
	}

	host, _ := os.Hostname()
	base := record{Workload: name, Host: host, CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit, Seed: seed}
	enc := json.NewEncoder(stdout)
	emit := func(r record) error { return enc.Encode(r) }

	held := base
	held.Layer, held.Metric, held.Value, held.Unit = "workload", "held_out_seed", float64(w.heldOut), "seed"
	held.Note = "kept out of tuning; re-run later claims on it"
	if err := emit(held); err != nil {
		return err
	}
	shown, listed := o.e2e, sp.EndToEnd
	if traced {
		shown, listed = o.layers, sp.PerLayer
	}
	for _, k := range sortedKeys(shown) {
		v := shown[k]
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			b.logf("%s: no samples", k)
			continue
		}
		r := base
		r.Layer, r.Metric, r.Value, r.Unit, r.N = layerOf(k, traced), k, v.V, v.Unit, v.N
		r.Note = o.kernels[k]
		if err := emit(r); err != nil {
			return err
		}
	}
	for _, c := range o.checks {
		r := base
		pass := c.Pass
		r.Layer, r.Metric, r.Value, r.Unit, r.Target, r.Pass, r.Note = "check", c.Name, c.Value, "ratio", c.Target, &pass, c.Note
		if err := emit(r); err != nil {
			return err
		}
	}

	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, m := range listed {
		v, ok := shown[m.Name]
		switch {
		case !ok && traced:
			// A layer the workload never calls did no work in it.
			v = value{0, m.Unit, 0}
		case !ok:
			return fmt.Errorf("workload measured no %s", m.Name)
		case v.Unit != m.Unit:
			return fmt.Errorf("%s measured in %s, but %s declares %s", m.Name, v.Unit, specFile, m.Unit)
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return fmt.Errorf("%s is %v", m.Name, v.V)
		}
		line.Metrics[m.Name] = metricOut{v.V, m.Unit}
	}
	if o.attempted < 1 {
		return errors.New("no operation attempted")
	}
	return enc.Encode(line)
}

// layerOf names the layer a metric belongs to in the result records.
func layerOf(metric string, traced bool) string {
	if !traced {
		return "end_to_end"
	}
	if i := strings.IndexByte(metric, '.'); i > 0 {
		return metric[:i]
	}
	return "benchmark"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
