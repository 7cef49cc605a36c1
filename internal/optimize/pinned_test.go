package optimize

import (
	"encoding/hex"
	"testing"

	"repro/internal/trace"
)

// pinnedShapes are the objective shapes whose full Result digest is
// pinned: every static, time-varying, embodied, multi-region and beam
// path the scoring code can take.
func pinnedShapes(t *testing.T) map[string]Config {
	t.Helper()
	prof := testIntensity(t)
	clean, err := prof.Scaled(0.15)
	if err != nil {
		t.Fatal(err)
	}
	embodied := []Embodied{DefaultEmbodied(), {KgCO2e: 800}, {KgCO2e: 2500, LifetimeHours: 6 * 8766}}
	staticCarbon := Objective{Metric: MetricCarbon, Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5}}
	regions := func(dirty, cleanProf *trace.IntensityProfile) Objective {
		return Objective{Metric: MetricCarbon, Regions: []Region{
			{Name: "dirty", Tariff: trace.Tariff{KgCO2PerKWh: 0.45, PUE: 1.5}, Carbon: dirty},
			{Name: "clean", Tariff: trace.Tariff{KgCO2PerKWh: 0.15, PUE: 1.2}, Carbon: cleanProf},
		}}
	}
	beam := func(cfg Config) Config {
		cfg.ExhaustiveLimit = 1
		cfg.BeamWidth, cfg.BeamRounds, cfg.Restarts = 8, 10, 3
		return cfg
	}
	shapes := map[string]Config{}
	with := func(name string, base Config, mut func(*Config)) {
		mut(&base)
		shapes[name] = base
	}
	with("energy", smallConfig(t), func(c *Config) {})
	with("cost-static", smallConfig(t), func(c *Config) {
		c.Objective = Objective{Metric: MetricCost, Tariff: trace.Tariff{USDPerKWh: 0.10, PUE: 1.5}}
	})
	with("carbon-static", smallConfig(t), func(c *Config) { c.Objective = staticCarbon })
	with("constant-profile", smallConfig(t), func(c *Config) {
		c.Objective = staticCarbon
		c.Objective.Carbon = &trace.IntensityProfile{StepSeconds: 3600, Rates: []float64{0.45, 0.45, 0.45, 0.45}}
	})
	with("carbon-varying", carbonSmallConfig(t), func(c *Config) {})
	with("carbon-varying-embodied", carbonSmallConfig(t), func(c *Config) { c.Embodied = embodied })
	with("carbon-static-embodied", smallConfig(t), func(c *Config) {
		c.Objective = staticCarbon
		c.Embodied = embodied
	})
	with("regions-static", smallConfig(t), func(c *Config) { c.Objective = regions(nil, nil) })
	with("regions-varying", smallConfig(t), func(c *Config) { c.Objective = regions(prof, clean) })
	with("regions-mixed", smallConfig(t), func(c *Config) { c.Objective = regions(prof, nil) })
	with("beam-energy", beam(smallConfig(t)), func(c *Config) {})
	with("beam-carbon", beam(carbonSmallConfig(t)), func(c *Config) {})
	all := make(map[string]Config, 2*len(shapes))
	for name, cfg := range shapes {
		all[name] = cfg
		cfg.DisablePruning = true
		all[name+"/noprune"] = cfg
	}
	return all
}

// resultDigestPins are sha256 digests of the full Result (see digest)
// for every pinned shape. A change to the scoring, bound, fold or
// replay arithmetic that moves any float by one ulp, reorders the
// shortlist or changes a search counter shows up here.
var resultDigestPins = map[string]string{
	"beam-carbon/noprune":             "b3ef7e1aaca80cd97819dd588e5de19c824101d3c5cca56ef845b69c03315c6c",
	"beam-carbon":                     "2da2e3eb09ded0740d3fba529a340c315060ed808b364b9b5ac0e2ab40c05fb7",
	"beam-energy/noprune":             "f63d173fd3da041f1a3c6e4cab54096e4cca0339f221ac8be00c9d306b271040",
	"beam-energy":                     "1bfc915701af5c836dc073d3d47ada0fe5a3a2f82dd3ee8f29e8e2e0e29924bf",
	"carbon-static-embodied/noprune":  "6b2b8a23d75855042be7029ffde5ec6b4f7d45cf60e079b2cdd849a81f318ab6",
	"carbon-static-embodied":          "12a757fa99480bcd0f790185f4d1f5ab955257aedc75b4fd8f5cdc8a1fd31119",
	"carbon-static/noprune":           "9a3887bf1f4e2b3f2a23d58448d0b230ab749cddb79e29a0bcb41228d80db917",
	"carbon-static":                   "8236f6b6d74d6d1daf09e8b45f64a1f626e1391b1d8d6e5433aa9f449e19014b",
	"carbon-varying-embodied/noprune": "595fa1c879205fe2b7ca470448aca8f547dac44d454f7e60b5a10e324e34df31",
	"carbon-varying-embodied":         "1e7493c7ff9f3c5feca7f8c169a22147352b1fd99d6be3f9ff543a3b3cd43c84",
	"carbon-varying/noprune":          "4b130587382a787691707b2cf24312ab0f623f413f21b8f9af8e74b07fbb97b3",
	"carbon-varying":                  "d20d8054018431cbe3dabb7d1a6a3c88e1e62dc0e4c0c9b94007d1832b8c8352",
	"constant-profile/noprune":        "9a3887bf1f4e2b3f2a23d58448d0b230ab749cddb79e29a0bcb41228d80db917",
	"constant-profile":                "8236f6b6d74d6d1daf09e8b45f64a1f626e1391b1d8d6e5433aa9f449e19014b",
	"cost-static/noprune":             "f078a18b0fd284e1bfb1cea2418e08cc8007a774d402cea9b5d1949c00dcfb1d",
	"cost-static":                     "05cde15d3ff8e59a769b4da30ed12ecfc10f65f1a6a1c5d38b3c73b107d40bc1",
	"energy/noprune":                  "7afacdf6139c69342cee849182adf3198a2260936f4174dd145ca4d459cbff3f",
	"energy":                          "4f379bff2c230a66945833e7dc511f526581a67343b08c33e14607af7de390c4",
	"regions-mixed/noprune":           "7903ed008cafcc7cd8f9f1c24e6f1cfa8fa6139f159f48589f16a530ecc2abab",
	"regions-mixed":                   "c179d33eb5cc3cdf36b8edea7b5d918379e716ffb9c77e5d682b20eb8906efc0",
	"regions-static/noprune":          "4d3bd96d18c14c44036d974aa3f98f940a53799ae09041e03a5a7440184e4eb9",
	"regions-static":                  "cd5302bc31e6f2e3a801076fb1e8c7da881ce321f93d33c6cdd8c4668a4478c8",
	"regions-varying/noprune":         "0ec9bfd75fcf8102b34c9c50d61141a50e1f16601c23fb0d4aebec0de584c76c",
	"regions-varying":                 "561ae75fc15b2989344be2016373b45846d4b6f98a02395b4622c5978ccc4ff2",
}

// TestResultDigestsPinned holds the optimizer's output contract: every
// objective shape, pruned and exhaustive, reproduces its pinned Result
// bit for bit.
func TestResultDigestsPinned(t *testing.T) {
	shapes := pinnedShapes(t)
	if len(shapes) != len(resultDigestPins) {
		t.Errorf("%d shapes, %d pins", len(shapes), len(resultDigestPins))
	}
	for name, cfg := range shapes {
		res, err := OptimizeComposition(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := digest(t, res)
		if got := hex.EncodeToString(d[:]); got != resultDigestPins[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got, resultDigestPins[name])
		}
	}
}

// TestExhaustiveCountsPartitionSpace: an exhaustive search counts
// every candidate exactly once — the incumbents that seed the pruning
// bound are not counted again when the scan reaches them.
func TestExhaustiveCountsPartitionSpace(t *testing.T) {
	for name, cfg := range pinnedShapes(t) {
		res, err := OptimizeComposition(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Exhaustive {
			continue
		}
		if visited := res.Evaluated + res.Pruned + res.Infeasible; visited != res.SpaceSize {
			t.Errorf("%s: evaluated %d + pruned %d + infeasible %d = %d, want space size %d",
				name, res.Evaluated, res.Pruned, res.Infeasible, visited, res.SpaceSize)
		}
	}
}
