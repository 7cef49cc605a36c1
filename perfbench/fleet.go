package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fleetsim"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The fleet-sim workload runs specsim's pipeline once per operation:
// a 100k-server fleet, its power profiles, a one-week trace at one-
// minute steps (diurnal and bursty in turn), and a pack+off simulation
// billed against a diurnal carbon-intensity profile. Synth and
// placement do most of the work; optimize, report and serve are not
// called. fleetsim's opt-in latency sampling is left out: at any useful
// sampling rate it costs hundreds of times the rest of the pipeline
// and needs a workload of its own.
const (
	fleetServers = 100_000
	fleetDays    = 7
	fleetStepSec = 60
	// fleetSeedCycle is how many distinct fleet seeds the operations
	// rotate through, so every seed repeats within a run and its
	// result digest can be compared with the first one.
	fleetSeedCycle = 4
	fleetPUE       = 1.5
)

func runFleetSim(b *bench) (*outcome, error) {
	o := newOutcome()
	var prof *trace.IntensityProfile
	digests := map[int64]string{}
	setup := func() error {
		var err error
		prof, err = trace.DiurnalIntensity(trace.IntensityConfig{})
		return err
	}
	op := func(i int, tr *tracer) (time.Duration, error) {
		return fleetOp(b, tr, prof, digests, i)
	}
	if err := b.runBatch(o, setup, op); err != nil {
		return nil, err
	}
	if b.tr != nil {
		layerStats(o, b.tr.spans)
		if v, ok := o.layers["fleetsim.run.ms"]; ok {
			o.layers["fleetsim.ns_per_step"] = value{v.V * 1e6 / (fleetDays * 86400 / fleetStepSec), "ns", v.N}
		}
		o.kernels["fleetsim.run.share"] = "BENCH_fleetsim.json BenchmarkFleetSimIncremental100kWeek: 8.91 ms per 100k-server week"
		o.kernels["synth.generate_fleet.share"] = "BENCH_fleet.json BenchmarkFleetGenerate10k: 88.2 ms per 10k servers"
	}
	return o, nil
}

// fleetOp runs one pipeline and checks its result: served plus unserved
// demand must equal the trace total, the result must lie inside bounds
// computed from the fleet's own profiles (fleetBounds), and a repeated
// seed must reproduce the first result's digest.
//
// Operations 2k and 2k+1 share a fleet seed and a trace shape, and the
// seeds alternate between diurnal and bursty traces. The traced run
// traces the even operations only, so its traced and untraced halves
// see the same inputs and their difference is the tracing cost alone.
func fleetOp(b *bench, tr *tracer, prof *trace.IntensityProfile, digests map[int64]string, i int) (time.Duration, error) {
	k := (i / 2) % fleetSeedCycle
	seed := b.seed*1000 + int64(k)
	opID := int64(i)
	root := tr.begin("op", opID, -1)
	start := time.Now()

	var results []*dataset.Result
	_, err := tr.call("synth.generate_fleet", opID, root, func() (err error) {
		results, err = synth.GenerateFleet(synth.FleetConfig{Seed: seed, Servers: fleetServers})
		return err
	})
	if err != nil {
		tr.end(root)
		return time.Since(start), err
	}
	var fleet []*placement.Profile
	_, err = tr.call("placement.profile", opID, root, func() (err error) {
		fleet, err = par.MapErr(len(results), func(k int) (*placement.Profile, error) {
			c, err := results[k].Curve()
			if err != nil {
				return nil, err
			}
			return placement.NewProfile(results[k].ID, c)
		})
		return err
	})
	if err != nil {
		tr.end(root)
		return time.Since(start), err
	}
	var capacity float64
	for _, p := range fleet {
		capacity += p.MaxOps
	}
	var demand *trace.Trace
	_, err = tr.call("trace.build", opID, root, func() (err error) {
		if k%2 == 0 {
			demand, err = trace.Diurnal(trace.DiurnalConfig{
				Seed: seed, Days: fleetDays, StepSeconds: fleetStepSec, BaseOps: 0.45 * capacity,
				DailySwing: 0.55, NoiseFrac: 0.04, SpikeProb: 0.002, WeekendFactor: 0.7,
			})
		} else {
			demand, err = trace.Bursty(trace.BurstyConfig{
				Seed: seed, Steps: fleetDays * 86400 / fleetStepSec, StepSeconds: fleetStepSec, BaseOps: 0.45 * capacity,
			})
		}
		return err
	})
	if err != nil {
		tr.end(root)
		return time.Since(start), err
	}
	var res fleetsim.Result
	_, err = tr.call("fleetsim.run", opID, root, func() (err error) {
		res, err = fleetsim.Run(fleetsim.Config{
			Members: fleet,
			Policy:  cluster.PolicyPackPowerOff,
			Trace:   demand,
			Power: fleetsim.PowerConfig{
				OnSeconds: 30, OffSeconds: 10, HysteresisSteps: 5, HeadroomFrac: 0.05, MinActive: 1,
			},
			Seed:   seed,
			Carbon: prof,
			PUE:    fleetPUE,
		})
		return err
	})
	d := time.Since(start)
	tr.end(root)
	if err != nil {
		return d, err
	}

	var total float64
	for _, v := range demand.DemandOps {
		total += v
	}
	got := (res.ServedOps + res.UnservedOps) * float64(res.Steps)
	if res.Servers != fleetServers || res.Steps != len(demand.DemandOps) {
		return d, fmt.Errorf("seed %d: simulated %d servers × %d steps, want %d × %d", seed, res.Servers, res.Steps, fleetServers, len(demand.DemandOps))
	}
	if math.Abs(got-total) > 1e-9*total {
		return d, fmt.Errorf("seed %d: served+unserved %.6g ops, trace total %.6g", seed, got, total)
	}
	if err := fleetBounds(fleet, demand, prof, res); err != nil {
		return d, fmt.Errorf("seed %d: %w", seed, err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return d, err
	}
	sum := sha256.Sum256(raw)
	digest := hex.EncodeToString(sum[:])
	if prev, ok := digests[seed]; ok && prev != digest {
		return d, fmt.Errorf("seed %d: result digest %s differs from the first run's %s", seed, digest[:12], prev[:12])
	}
	digests[seed] = digest
	return d, nil
}

// fleetBounds checks a pack+off result against limits computed from
// the members' profiles and the inputs, not from the simulator's own
// accounting:
//   - mean served demand is at most the mean of min(demand, capacity);
//   - serving energy is at least minServingWatts of the mean served
//     demand for the whole trace (the bound is convex in demand, so
//     the mean's bound is below the mean of the steps' bounds), and at
//     most every member at peak power; the peak draw is at most the
//     fleet's peak;
//   - carbon is the facility energy billed somewhere between the
//     lowest and the highest intensity of the profile.
func fleetBounds(fleet []*placement.Profile, demand *trace.Trace, prof *trace.IntensityProfile, res fleetsim.Result) error {
	const tol = 1e-9
	var capacity, peakW float64
	for _, p := range fleet {
		capacity += p.MaxOps
		peakW += p.PowerAt(1)
	}
	var servable float64
	for _, v := range demand.DemandOps {
		servable += math.Min(v, capacity)
	}
	servable /= float64(len(demand.DemandOps))
	if !(res.ServedOps > 0) || res.ServedOps > servable*(1+tol) {
		return fmt.Errorf("served %.6g ops per step, at most %.6g servable", res.ServedOps, servable)
	}
	seconds := float64(res.Steps) * res.StepSeconds
	servingJ := (res.EnergyKWh - res.TransitionKWh) * 3.6e6
	if minJ := minServingWatts(fleet, res.ServedOps) * seconds; servingJ < minJ*(1-tol) {
		return fmt.Errorf("serving energy %.6g J is below the %.6g J the served work needs at the members' best efficiencies", servingJ, minJ)
	}
	if maxJ := peakW * seconds; servingJ > maxJ*(1+tol) || res.PeakPowerWatts > peakW*(1+tol) {
		return fmt.Errorf("serving energy %.6g J or peak %.6g W exceeds the fleet at full power (%.6g J, %.6g W)", servingJ, res.PeakPowerWatts, maxJ, peakW)
	}
	if res.TransitionKWh < 0 || res.TransitionKWh > res.EnergyKWh {
		return fmt.Errorf("transition energy %.6g kWh of %.6g kWh total", res.TransitionKWh, res.EnergyKWh)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range prof.Rates {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	facilityKWh := res.EnergyKWh * fleetPUE
	if res.CarbonKg < lo*facilityKWh*(1-tol) || res.CarbonKg > hi*facilityKWh*(1+tol) {
		return fmt.Errorf("carbon %.6g kg outside %.6g-%.6g kg, the facility's %.6g kWh at %.4g-%.4g kg/kWh", res.CarbonKg, lo*facilityKWh, hi*facilityKWh, facilityKWh, lo, hi)
	}
	return nil
}

// minServingWatts is a lower bound on the power any placement needs to
// serve ops: every member's power at utilization u is at least u·MaxOps
// over its best efficiency at any measured level (efficiency between
// two levels lies between theirs), so the cheapest placement fills the
// most efficient members first, as a fractional knapsack.
func minServingWatts(fleet []*placement.Profile, ops float64) float64 {
	type member struct{ ee, ops float64 }
	ms := make([]member, len(fleet))
	for i, p := range fleet {
		for _, pt := range p.Curve.Points() {
			ms[i].ee = math.Max(ms[i].ee, p.EEAt(pt.Utilization))
		}
		ms[i].ops = p.MaxOps
	}
	sort.Slice(ms, func(a, b int) bool { return ms[a].ee > ms[b].ee })
	var w float64
	for _, m := range ms {
		if ops <= 0 || m.ee <= 0 {
			break
		}
		take := math.Min(ops, m.ops)
		w += take / m.ee
		ops -= take
	}
	return w
}
