package placement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// lutProfile builds a profile with a mildly curved shape for the
// lookup-table tests.
func lutProfile(t *testing.T) *Profile {
	t.Helper()
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		u := float64(i+1) / 10
		watts[i] = 300 * (0.3 + 0.7*math.Pow(u, 1.3))
		ops[i] = 1e6 * u
	}
	c, err := core.NewStandardCurve(80, watts, ops)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfile("lut", c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// gridProfile profiles an n-point curve on a uniform utilization grid.
func gridProfile(t *testing.T, n int) *Profile {
	t.Helper()
	points := make([]core.Point, n)
	for i := range points {
		u := float64(i) / float64(n-1)
		points[i] = core.Point{Utilization: u, OpsPerSec: 1e6 * u, PowerWatts: 300 * (0.3 + 0.7*math.Pow(u, 1.3))}
	}
	c, err := core.NewCurve(points)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfile("grid", c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPowerAtMatchesCurveBitForBit pins the LUT contract: the table
// holds the curve's utilizations and normalized powers, and the fast
// path reproduces core.Curve.PowerAt · PeakPower exactly, not just
// approximately, over a dense utilization grid — for the standard
// eleven points and for grids on either side of that size.
func TestPowerAtMatchesCurveBitForBit(t *testing.T) {
	for _, p := range []*Profile{lutProfile(t), gridProfile(t, 3), gridProfile(t, 21)} {
		checkPowerAtMatchesCurve(t, p)
	}
}

func checkPowerAtMatchesCurve(t *testing.T, p *Profile) {
	t.Helper()
	norm := p.Curve.NormalizedPower()
	if len(p.lutUtil) != len(norm) || len(p.lutNorm) != len(norm) {
		t.Fatalf("%d-point curve: LUT sizes %d/%d", len(norm), len(p.lutUtil), len(p.lutNorm))
	}
	for i := range norm {
		if p.lutUtil[i] != p.Curve.Point(i).Utilization || math.Float64bits(p.lutNorm[i]) != math.Float64bits(norm[i]) {
			t.Fatalf("%d-point curve: LUT entry %d = (%v, %v), curve (%v, %v)",
				len(norm), i, p.lutUtil[i], p.lutNorm[i], p.Curve.Point(i).Utilization, norm[i])
		}
	}
	for i := 0; i <= 10000; i++ {
		u := float64(i) / 10000
		norm, err := p.Curve.PowerAt(u)
		if err != nil {
			t.Fatalf("curve path failed at %v: %v", u, err)
		}
		want := norm * p.Curve.PeakPower()
		if got := p.PowerAt(u); got != want {
			t.Fatalf("PowerAt(%v) = %v, curve path %v", u, got, want)
		}
	}
	// Random off-grid utilizations, including the clamped ranges.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		u := -0.5 + 2*rng.Float64()
		clamped := math.Max(0, math.Min(1, u))
		norm, err := p.Curve.PowerAt(clamped)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.PowerAt(u), norm*p.Curve.PeakPower(); got != want {
			t.Fatalf("PowerAt(%v) = %v, curve path %v", u, got, want)
		}
	}
}

func TestPowerAtAllAndEEAtAll(t *testing.T) {
	p := lutProfile(t)
	us := []float64{-1, 0, 0.05, 0.333, 0.7, 0.95, 1, 2}
	powers := p.PowerAtAll(us, nil)
	ees := p.EEAtAll(us, nil)
	if len(powers) != len(us) || len(ees) != len(us) {
		t.Fatalf("batched lengths %d/%d, want %d", len(powers), len(ees), len(us))
	}
	for i, u := range us {
		if powers[i] != p.PowerAt(u) {
			t.Errorf("PowerAtAll[%d] = %v, PowerAt = %v", i, powers[i], p.PowerAt(u))
		}
		if ees[i] != p.EEAt(u) {
			t.Errorf("EEAtAll[%d] = %v, EEAt = %v", i, ees[i], p.EEAt(u))
		}
	}
	// Destination reuse: a large-enough dst is written in place.
	dst := make([]float64, len(us))
	if got := p.PowerAtAll(us, dst); &got[0] != &dst[0] {
		t.Error("PowerAtAll reallocated a sufficient dst")
	}
}

func TestOptimalEEMatchesEEAt(t *testing.T) {
	p := lutProfile(t)
	if got, want := p.OptimalEE(), p.EEAt(p.OptimalUtilization); got != want {
		t.Errorf("cached OptimalEE %v, EEAt %v", got, want)
	}
}

// TestNewProfileAllocs bounds profile construction to one allocation:
// the Profile and its two lookup tables share it, and the curve metrics
// it reads allocate nothing.
func TestNewProfileAllocs(t *testing.T) {
	c := lutProfile(t).Curve
	n := testing.AllocsPerRun(100, func() {
		if _, err := NewProfile("allocs", c); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("NewProfile: %v allocations, want ≤ 1", n)
	}
}

// TestNewProfileRejectsInvalidPeak covers the satellite fix: what used
// to be a silent PeakPower fallback in the hot path is now a
// constructor validation failure.
func TestNewProfileRejectsInvalidPeak(t *testing.T) {
	if _, err := NewProfile("nil-curve", nil); err == nil {
		t.Error("nil curve accepted")
	}
}

// TestProportionalFillMatchesPlaceProportional checks the extracted
// engage-order + fill pieces compose to exactly the planner's output.
func TestProportionalFillMatchesPlaceProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	profiles := make([]*Profile, 12)
	for i := range profiles {
		watts := make([]float64, 10)
		ops := make([]float64, 10)
		peak := 150 + 350*rng.Float64()
		maxOps := 1e5 + 9e5*rng.Float64()
		idle := peak * (0.2 + 0.4*rng.Float64())
		for j := 0; j < 10; j++ {
			u := float64(j+1) / 10
			watts[j] = idle + (peak-idle)*math.Pow(u, 1+0.5*rng.Float64())
			ops[j] = maxOps * u
		}
		c, err := core.NewStandardCurve(idle, watts, ops)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewProfile("srv", c)
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = p
	}
	var capacity float64
	for _, p := range profiles {
		capacity += p.MaxOps
	}
	for _, frac := range []float64{0.1, 0.4, 0.75, 0.99} {
		demand := frac * capacity
		plan, err := PlaceProportional(profiles, demand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		order := EngageOrder(profiles)
		util := make([]float64, len(order))
		remaining := ProportionalFill(order, demand, util)
		var power float64
		for i, s := range order {
			power += s.PowerAt(util[i])
		}
		if power != plan.TotalPower {
			t.Errorf("demand %.0f: fill power %v, planner power %v", demand, power, plan.TotalPower)
		}
		if (remaining <= 1e-9) != plan.Satisfied {
			t.Errorf("demand %.0f: fill remaining %v vs planner satisfied %v", demand, remaining, plan.Satisfied)
		}
	}
}
