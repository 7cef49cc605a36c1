package synth

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/verify/tol"
)

// fuzzNormalize turns 11 arbitrary float64s into an admissible
// normalized curve: strictly increasing positive powers with the 100%
// level pinned to 1, the way every corpus curve is shaped. Returns
// ok=false for inputs that cannot be coerced (NaN, Inf, degenerate
// spans).
func fuzzNormalize(raw [11]float64) (normCurve, bool) {
	steps := make([]float64, 11)
	for i, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return normCurve{}, false
		}
		// Fold each input into a strictly positive step size.
		steps[i] = 1e-3 + math.Abs(math.Mod(v, 64))
	}
	cum := make([]float64, 11)
	cum[0] = steps[0]
	for i := 1; i < 11; i++ {
		cum[i] = cum[i-1] + steps[i]
	}
	peak := cum[10]
	var c normCurve
	c.idle = cum[0] / peak
	for i := 0; i < 10; i++ {
		c.levels[i] = cum[i+1] / peak
	}
	if !c.monotone() || c.idle <= 0 {
		return normCurve{}, false
	}
	return c, true
}

// toCore denormalizes a curve into the dataset representation (a 300 W
// peak server with throughput proportional to load) so core.Curve
// recomputes EP through the independent production path.
func toCore(t *testing.T, c normCurve) *core.Curve {
	t.Helper()
	const peakWatts, peakOps = 300.0, 1e6
	points := make([]core.Point, 0, 11)
	points = append(points, core.Point{Utilization: 0, PowerWatts: c.idle * peakWatts})
	for i, u := range levelGrid {
		points = append(points, core.Point{
			Utilization: u,
			OpsPerSec:   u * peakOps,
			PowerWatts:  c.levels[i] * peakWatts,
		})
	}
	curve, err := core.NewCurve(points)
	if err != nil {
		t.Fatalf("normalized curve rejected by core.NewCurve: %v", err)
	}
	return curve
}

// The per-candidate reference forms of the solver's shape tests: each
// re-evaluates cubicShape on the grid for its own (a, b). The solver
// evaluates a candidate in one fused pass (shape.fill, shape.curve) and
// must match these bit for bit.

// shapeCurve builds the normalized curve for shape (a, b) and idle k:
// p(u) = k + (1-k)·s(u).
func shapeCurve(a, b, k float64) normCurve {
	var c normCurve
	c.idle = k
	for i, u := range levelGrid {
		c.levels[i] = k + (1-k)*cubicShape(a, b, u)
	}
	return c
}

// shapeArea returns the trapezoid area of the raw shape s on the grid
// (with s(0) = 0).
func shapeArea(a, b float64) float64 {
	area := 0.1 * cubicShape(a, b, 0.1) / 2
	for i := 1; i < len(levelGrid); i++ {
		area += 0.1 * (cubicShape(a, b, levelGrid[i-1]) + cubicShape(a, b, levelGrid[i])) / 2
	}
	return area
}

// idleForEP solves the idle fraction that makes the shape (a, b) hit
// the target EP exactly, or reports false outside the physical band.
func idleForEP(a, b, ep float64) (float64, bool) {
	g := shapeArea(a, b)
	if g >= 1 {
		return 0, false
	}
	k := (1 - ep/2 - g) / (1 - g)
	if k < 0.015 || k > 0.93 {
		return 0, false
	}
	return k, true
}

// shapeAdmissible rejects shapes that are non-monotone or overshoot the
// 100% power level before full load.
func shapeAdmissible(a, b float64) bool {
	prev := 0.0
	for _, u := range levelGrid {
		s := cubicShape(a, b, u)
		if s <= prev || (u < 1 && s >= 1) || s < 0 {
			return false
		}
		prev = s
	}
	return true
}

// peakSpotMargin is the reference peak-spot search: the level
// maximizing u/p(u) and the best/runner-up ratio, from the curve
// directly.
func peakSpotMargin(c normCurve) (spot float64, margin float64) {
	best, second := -1.0, -1.0
	for i, u := range levelGrid {
		e := u / c.levels[i]
		if e > best {
			second = best
			best = e
			spot = u
		} else if e > second {
			second = e
		}
	}
	if second <= 0 {
		return spot, math.Inf(1)
	}
	return spot, best / second
}

// sameCurve reports whether two curves are equal bit for bit.
func sameCurve(x, y normCurve) bool {
	if math.Float64bits(x.idle) != math.Float64bits(y.idle) {
		return false
	}
	for i := range x.levels {
		if math.Float64bits(x.levels[i]) != math.Float64bits(y.levels[i]) {
			return false
		}
	}
	return true
}

// FuzzCurveEP drives random admissible curves through both EP
// implementations: the generator's normalized trapezoid (ep) and the
// production metric kernel (core.Curve.EP). They must agree to float
// round-off and stay inside the provable (0, 2) band. The peak-spot
// search over the shared efficiency array must match the reference
// search bit for bit.
func FuzzCurveEP(f *testing.F) {
	rp, err := NewRepository(Config{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range rp.Valid().All()[:16] { // seed with real corpus curves
		points := r.MustCurve().Points()
		peak := points[10].PowerWatts
		var raw [11]float64
		prev := 0.0
		for i, p := range points {
			raw[i] = p.PowerWatts/peak - prev
			prev = p.PowerWatts / peak
		}
		f.Add(raw[0], raw[1], raw[2], raw[3], raw[4], raw[5],
			raw[6], raw[7], raw[8], raw[9], raw[10])
	}
	f.Add(0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)

	f.Fuzz(func(t *testing.T, v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10 float64) {
		c, ok := fuzzNormalize([11]float64{v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10})
		if !ok {
			t.Skip()
		}
		ep := c.ep()
		if ep <= tol.MinEP || ep >= tol.MaxEP {
			t.Fatalf("EP %v outside (%v, %v) for monotone curve %+v", ep, tol.MinEP, tol.MaxEP, c)
		}
		if got := 2 - 2*c.trapezoidArea(); got != ep {
			t.Fatalf("ep() %v inconsistent with trapezoidArea %v", ep, got)
		}
		if coreEP := toCore(t, c).EP(); math.Abs(coreEP-ep) > tol.EPRecomputeTolerance {
			t.Fatalf("core.Curve.EP %v diverges from normCurve.ep %v (Δ %v)",
				coreEP, ep, coreEP-ep)
		}
		var eff [10]float64
		c.efficiencies(&eff)
		spot, best, second := peakSpot(&eff)
		wantSpot, wantMargin := peakSpotMargin(c)
		if margin := spotMargin(best, second); spot != wantSpot ||
			math.Float64bits(margin) != math.Float64bits(wantMargin) {
			t.Fatalf("peakSpot = (%v, margin %v), reference (%v, %v)", spot, margin, wantSpot, wantMargin)
		}
	})
}

// FuzzIdleForEP round-trips the generator's two curve solvers: the
// exact idle-for-EP inversion over the cubic shape family, and the
// Eq. 2 inversion. Whenever idleForEP accepts a target the resulting
// curve must hit that EP to round-off, and idleFromEq2 must invert
// Eq. 2 exactly. The solver's fused shape and curve passes must equal
// the per-(a, b) shapeAdmissible, idleForEP, shapeCurve and
// peakSpotMargin bit for bit.
func FuzzIdleForEP(f *testing.F) {
	rp, err := NewRepository(Config{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	eps := rp.Valid().EPs()
	for i, ep := range eps[:24] { // seed with real corpus EP targets
		a := -1.0 + 2.0*float64(i)/24
		f.Add(a, -a/2, ep)
	}
	f.Add(0.0, 0.0, 0.5)
	f.Add(0.3, -0.6, 1.05)

	f.Fuzz(func(t *testing.T, a, b, ep float64) {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(ep) ||
			math.Abs(a) > 2 || math.Abs(b) > 2 || ep <= 0.01 || ep >= 1.8 {
			t.Skip()
		}
		admissible := shapeAdmissible(a, b)
		k, ok := idleForEP(a, b, ep)
		var s shape
		if gotK, gotOK := s.fill(a, b, 1-ep/2); gotOK != (admissible && ok) ||
			gotOK && math.Float64bits(gotK) != math.Float64bits(k) {
			t.Fatalf("shape.fill(%v, %v, EP %v) = (%v, %v), shapeAdmissible = %v, idleForEP = (%v, %v)",
				a, b, ep, gotK, gotOK, admissible, k, ok)
		}
		if !admissible {
			t.Skip()
		}
		// fill wrote the whole shape; the curve pass must build
		// shapeCurve and find its peak spot.
		want := shapeCurve(a, b, k)
		var got normCurve
		spot, best, second, mono := s.curve(&got, k)
		if mono != want.monotone() {
			t.Fatalf("shape(%v, %v).curve(%v) monotone = %v, shapeCurve %+v", a, b, k, mono, want)
		}
		if mono {
			if !sameCurve(got, want) {
				t.Fatalf("shape(%v, %v).curve(%v) = %+v, shapeCurve = %+v", a, b, k, got, want)
			}
			wantSpot, wantMargin := peakSpotMargin(want)
			if margin := spotMargin(best, second); spot != wantSpot ||
				math.Float64bits(margin) != math.Float64bits(wantMargin) {
				t.Fatalf("shape(%v, %v).curve(%v) peak = (%v, margin %v), reference (%v, %v)",
					a, b, k, spot, margin, wantSpot, wantMargin)
			}
		}
		if ok {
			if k < 0.015 || k > 0.93 {
				t.Fatalf("idleForEP(%v, %v, %v) = %v outside the physical band", a, b, ep, k)
			}
			c := shapeCurve(a, b, k)
			if got := c.ep(); math.Abs(got-ep) > 1e-9 {
				t.Fatalf("shapeCurve(%v, %v, %v).ep() = %v, want %v (Δ %v)",
					a, b, k, got, ep, got-ep)
			}
		}
		if ep < eq2A { // Eq. 2 only covers EPs below its A asymptote at idle ≥ 0
			idle := idleFromEq2(ep)
			if back := eq2A * math.Exp(eq2B*idle); math.Abs(back-ep) > 1e-9*math.Max(1, ep) {
				t.Fatalf("Eq. 2 round trip: idleFromEq2(%v) = %v maps back to %v", ep, idle, back)
			}
		}
	})
}
