package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/fleetsim"
	"repro/internal/optimize"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The composition-search workload builds the paper corpus, six model
// profiles and a one-week trace once in set-up; one operation is a
// cycle of three searches with pruning on. The models come from the
// seed-1 corpus whatever the workload seed, because the alphabet sets
// how much of the space is feasible and prunable, and so the cost of a
// search several times over; the workload seed draws the demand trace
// and the searches' branch seeds. optimize does nearly all the
// work here and almost none in the other workloads. The specplace CLI
// is bypassed on purpose: its -optimize default flags exit with "no
// feasible composition", a CLI defect outside this benchmark.
const (
	// composeDemand is the trace's mean demand as a share of the
	// largest 5-model composition's capacity: high enough that small
	// compositions are infeasible, low enough that most of the space
	// is feasible and the lower bound prunes part of it.
	composeDemand = 0.1
	// composeCorpusSeed generates the corpus the models come from.
	composeCorpusSeed = 1
)

// composeQuantiles pick the models at fixed capacity quantiles of the
// corpus.
var composeQuantiles = []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.95}

// search is one of the three searches of a cycle.
type search struct {
	kind string
	cfg  optimize.Config
}

// composeKinds is the cycle order.
var composeKinds = []string{"static", "carbon2d", "beam"}

func runCompositionSearch(b *bench) (*outcome, error) {
	o := newOutcome()
	var searches []search
	digests := map[string]string{}
	perKind := map[string][]float64{}
	last := map[string]optimize.Result{}
	setup := func() (err error) {
		searches, err = composeSetup(b.seed)
		return err
	}
	op := func(i int, tr *tracer) (time.Duration, error) {
		opID := int64(i)
		root := tr.begin("op", opID, -1)
		results := make([]optimize.Result, len(searches))
		var total time.Duration
		for k, s := range searches {
			d, err := tr.call("optimize."+s.kind, opID, root, func() (err error) {
				results[k], err = optimize.OptimizeComposition(s.cfg)
				return err
			})
			total += d
			if err != nil {
				tr.end(root)
				return total, fmt.Errorf("%s: %w", s.kind, err)
			}
			if i > 0 && tr == nil {
				perKind[s.kind] = append(perKind[s.kind], ms(d))
			}
		}
		tr.end(root)
		for k, s := range searches {
			last[s.kind] = results[k]
			if err := checkSearch(s, results[k], digests); err != nil {
				return total, fmt.Errorf("%s: %w", s.kind, err)
			}
		}
		return total, nil
	}
	if err := b.runBatch(o, setup, op); err != nil {
		return nil, err
	}
	for _, k := range composeKinds {
		s := sorted(perKind[k])
		o.e2e["op_p50_ms."+k] = value{median(s), "ms", len(s)}
	}
	if b.tr != nil {
		layerStats(o, b.tr.spans)
		for _, k := range composeKinds {
			r := last[k]
			visited := r.Evaluated + r.Pruned + r.Infeasible
			o.layers["optimize."+k+".evaluated"] = value{float64(r.Evaluated), "count", 0}
			o.layers["optimize."+k+".pruned"] = value{float64(r.Pruned), "count", 0}
			o.layers["optimize."+k+".infeasible"] = value{float64(r.Infeasible), "count", 0}
			if visited > 0 {
				o.layers["optimize."+k+".prune_ratio"] = value{float64(r.Pruned) / float64(visited), "frac", 0}
			}
			if v, ok := o.layers["optimize."+k+".ms"]; ok && r.Evaluated > 0 {
				o.layers["optimize."+k+".us_per_candidate"] = value{v.V * 1e3 / float64(r.Evaluated), "us", v.N}
			}
		}
		o.layers["optimize.carbon2d.cells"] = value{float64(last["carbon2d"].Cells), "count", 0}
		o.kernels["optimize.static.share"] = "BENCH_optimize.json BenchmarkOptimizePruned: 13.2 ms for 16,806 candidates, 1 policy"
		o.kernels["optimize.carbon2d.share"] = "BENCH_carbon.json BenchmarkCarbonFold2D: 95.4 ms for 16,806 candidates, pruning off"
	}
	// The 2-D fold must stay within twice the static fold's time
	// (ROADMAP target); reported as measured, never loosened.
	ratio := o.e2e["op_p50_ms.carbon2d"].V / o.e2e["op_p50_ms.static"].V
	o.checks = append(o.checks, check{Name: "optimize.carbon2d_over_static", Value: ratio, Target: "<= 2", Pass: ratio <= 2,
		Note: "median carbon2d search time over median static search time, same space"})
	return o, nil
}

// composeSetup builds the paper corpus, picks six models at fixed
// capacity quantiles, and returns the three searches of a cycle.
func composeSetup(seed int64) ([]search, error) {
	rp, err := synth.NewRepository(synth.Config{Seed: composeCorpusSeed})
	if err != nil {
		return nil, err
	}
	valid := rp.Valid().All()
	profiles := make([]*placement.Profile, 0, len(valid))
	for _, r := range valid {
		c, err := r.Curve()
		if err != nil {
			return nil, err
		}
		p, err := placement.NewProfile(r.ID, c)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, p)
	}
	sort.SliceStable(profiles, func(a, c int) bool { return profiles[a].MaxOps < profiles[c].MaxOps })
	models := make([]*placement.Profile, 0, len(composeQuantiles))
	for _, q := range composeQuantiles {
		models = append(models, profiles[int(q*float64(len(profiles)-1))])
	}
	var maxCap float64
	for _, p := range models[:5] {
		maxCap += 6 * p.MaxOps
	}
	demand, err := trace.Diurnal(trace.DiurnalConfig{
		// No spikes and little noise: a spike sets the trace peak,
		// which moves the feasibility boundary, and noise spreads the
		// demand histogram's occupied cells, so either would make the
		// seed rather than the code decide what a search costs.
		Seed: seed, Days: 7, StepSeconds: 60, BaseOps: composeDemand * maxCap, DailySwing: 0.4, NoiseFrac: 0.005,
	})
	if err != nil {
		return nil, err
	}
	carbon, err := trace.DiurnalIntensity(trace.IntensityConfig{})
	if err != nil {
		return nil, err
	}
	return []search{
		// 5 models × counts 0–6 × 4 policies = 67,228 candidates,
		// enumerated exhaustively on the 1-D fold.
		{kind: "static", cfg: optimize.Config{Models: models[:5], Trace: demand, MaxPerModel: 6, Seed: seed}},
		// The same space under a diurnal carbon profile: the 2-D fold.
		{kind: "carbon2d", cfg: optimize.Config{Models: models[:5], Trace: demand, MaxPerModel: 6, Seed: seed,
			Objective: optimize.Objective{Metric: optimize.MetricCarbon, Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5}, Carbon: carbon}}},
		// 6 models × counts 0–10 × 4 policies ≈ 7.1M candidates: past
		// the exhaustive limit, so the search runs the beam.
		{kind: "beam", cfg: optimize.Config{Models: models, Trace: demand, MaxPerModel: 10, Seed: seed}},
	}, nil
}

// checkSearch replays the best composition independently through
// fleetsim.Run and compares it with the optimizer's exact figures; the
// best composition must also repeat exactly from cycle to cycle.
func checkSearch(s search, r optimize.Result, digests map[string]string) error {
	best := r.Best
	if !best.Exact {
		return fmt.Errorf("best candidate %d was not replayed", best.ID)
	}
	if wantExhaustive := s.kind != "beam"; r.Exhaustive != wantExhaustive {
		return fmt.Errorf("exhaustive=%v, want %v", r.Exhaustive, wantExhaustive)
	}
	// An exhaustive search visits every candidate at least once (the
	// incumbents that seed the pruning bound are counted again when the
	// scan reaches them).
	if visited := r.Evaluated + r.Pruned + r.Infeasible; visited <= 0 || (r.Exhaustive && visited < r.SpaceSize) {
		return fmt.Errorf("visited %d of %d candidates", visited, r.SpaceSize)
	}
	var groups []placement.Group
	for m, n := range best.Counts {
		if n > 0 {
			groups = append(groups, placement.Group{P: s.cfg.Models[m], Count: n})
		}
	}
	cfg := fleetsim.Config{Groups: groups, Policy: best.Policy, Trace: s.cfg.Trace, Power: s.cfg.Power, Seed: s.cfg.Seed}
	carbon := s.cfg.Objective.Carbon
	if carbon != nil {
		cfg.Carbon, cfg.PUE = carbon, s.cfg.Objective.Tariff.PUE
	}
	res, err := fleetsim.Run(cfg)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !closeTo(res.EnergyKWh, best.ExactEnergyKWh, 1e-9) {
		return fmt.Errorf("replay energy %.9g kWh, optimizer's exact %.9g kWh", res.EnergyKWh, best.ExactEnergyKWh)
	}
	if carbon != nil && !closeTo(res.CarbonKg, best.ExactObjective, 1e-9) {
		return fmt.Errorf("replay carbon %.9g kg, optimizer's exact objective %.9g kg", res.CarbonKg, best.ExactObjective)
	}
	digest := fmt.Sprintf("%v/%v/%x/%d/%d/%d", best.Counts, best.Policy, math.Float64bits(best.ExactObjective), r.Evaluated, r.Pruned, r.Infeasible)
	if prev, ok := digests[s.kind]; ok && prev != digest {
		return fmt.Errorf("result %s differs from the first cycle's %s", digest, prev)
	}
	digests[s.kind] = digest
	return nil
}

// closeTo reports whether a and b agree within relative tolerance tol.
func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
