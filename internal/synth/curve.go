package synth

import (
	"math"
	"math/rand"
)

// levelGrid is the ten measured utilization levels (10%..100%).
var levelGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// normCurve is a normalized power curve: idle fraction plus the ten
// level powers relative to the 100% level (levels[9] == 1).
type normCurve struct {
	idle   float64
	levels [10]float64
}

// trapezoidArea integrates the curve over utilization [0, 1] with the
// trapezoid rule on the 11-point grid — the same quadrature Eq. 1 uses.
func (c *normCurve) trapezoidArea() float64 {
	area := 0.1 * (c.idle + c.levels[0]) / 2
	for i := 1; i < 10; i++ {
		area += 0.1 * (c.levels[i-1] + c.levels[i]) / 2
	}
	return area
}

// ep returns the curve's energy proportionality (Eq. 1).
func (c *normCurve) ep() float64 { return 2 - 2*c.trapezoidArea() }

// efficiencies writes u/p(u) at each level into eff: the curve's
// efficiency assuming throughput proportional to load.
func (c *normCurve) efficiencies(eff *[10]float64) {
	for i, u := range levelGrid {
		eff[i] = u / c.levels[i]
	}
}

// peakSpot returns the level maximizing the efficiencies eff — the
// peak-efficiency spot, the first one on a tie — with the best and the
// runner-up efficiency.
func peakSpot(eff *[10]float64) (spot, best, second float64) {
	best, second = -1.0, -1.0
	for i, e := range eff {
		if e > best {
			second = best
			best = e
			spot = levelGrid[i]
		} else if e > second {
			second = e
		}
	}
	return spot, best, second
}

// spotMargin is the best/runner-up efficiency ratio: the stability
// margin of the peak spot.
func spotMargin(best, second float64) float64 {
	if second <= 0 {
		return math.Inf(1)
	}
	return best / second
}

// monotone reports whether power strictly increases across the curve.
func (c *normCurve) monotone() bool {
	prev := c.idle
	for _, p := range &c.levels { // by pointer: no copy of the array
		if p <= prev {
			return false
		}
		prev = p
	}
	return true
}

// cubicShape evaluates s(u) = u + u(1-u)(a + b·u), a monotone-checked
// S-curve family with s(0)=0 and s(1)=1 used to generate curve shapes.
func cubicShape(a, b, u float64) float64 {
	return u + u*(1-u)*(a+b*u)
}

// shape is one candidate cubic shape (a, b) evaluated on the ten-level
// grid. The solver evaluates each candidate once and derives
// admissibility, area, idle and curve from this one array. The solver's
// arrays are filled in place through pointers: returning them by value
// costs a block copy per candidate.
type shape [10]float64

// eval sets s to cubicShape(a, b, ·) on the level grid.
func (s *shape) eval(a, b float64) {
	for i, u := range levelGrid {
		s[i] = cubicShape(a, b, u)
	}
}

// admissible rejects shapes that are non-monotone or overshoot the
// 100% power level before full load.
func (s *shape) admissible() bool {
	prev := 0.0
	for i, v := range s {
		if v <= prev || (levelGrid[i] < 1 && v >= 1) || v < 0 {
			return false
		}
		prev = v
	}
	return true
}

// area returns the trapezoid area of the raw shape on the grid (with
// s(0) = 0).
func (s *shape) area() float64 {
	area := 0.1 * s[0] / 2
	for i := 1; i < len(s); i++ {
		area += 0.1 * (s[i-1] + s[i]) / 2
	}
	return area
}

// idleForEP solves the idle fraction that makes the shape hit the
// target EP exactly: with A* = 1 − EP/2 and G the shape's area,
// k = (A* − G)/(1 − G). ok is false when the required idle is outside
// the physical band.
func (s *shape) idleForEP(ep float64) (float64, bool) {
	g := s.area()
	if g >= 1 {
		return 0, false
	}
	k := (1 - ep/2 - g) / (1 - g)
	if k < 0.015 || k > 0.93 {
		return 0, false
	}
	return k, true
}

// curve sets c to the normalized curve for the shape and idle k:
// p(u) = k + (1-k)·s(u).
func (s *shape) curve(c *normCurve, k float64) {
	c.idle = k
	for i, v := range s {
		c.levels[i] = k + (1-k)*v
	}
}

// peakMargin is the minimum best/runner-up efficiency ratio required so
// per-level throughput jitter cannot move the peak spot.
const peakMargin = 1.012

// Eq. 2 constants: the paper's fitted relation EP = A·e^(B·idle). The
// generator inverts it to choose each server's idle fraction from its
// EP target, which is what makes the corpus reproduce the correlation
// (−0.92) and the regression (R² ≈ 0.89).
const (
	eq2A = 1.2969
	eq2B = -2.06
	// eq2IdleNoise is the σ of the lognormal-ish scatter around the
	// inverted relation, tuned so the fitted R² lands near the paper's.
	eq2IdleNoise = 0.05
)

// idleFromEq2 inverts Eq. 2: idle = ln(EP/A)/B.
func idleFromEq2(ep float64) float64 {
	return math.Log(ep/eq2A) / eq2B
}

// solveCurve builds a curve with the exact target EP whose idle
// fraction follows the inverted Eq. 2 relation (plus scatter) and whose
// peak-efficiency spot lands on wantSpot. The cubic shape family
// provides the curvature; when random search does not hit the spot the
// curve is nudged level-wise and re-blended to the exact EP.
//
// The output is a pure function of the RNG stream: every fleet and
// corpus digest depends on the draws below staying the same, in the
// same order, and on each float expression keeping its form.
func solveCurve(rng *rand.Rand, ep, wantSpot float64) normCurve {
	targetIdle := clampF(idleFromEq2(ep)+eq2IdleNoise*rng.NormFloat64(), 0.03, 0.90)
	// The shape area implied by the idle choice:
	// A* = k + (1−k)·G  →  G = (A* − k)/(1 − k).
	aStar := 1 - ep/2
	gTarget := (aStar - targetIdle) / (1 - targetIdle)

	var (
		fallback    normCurve
		haveFall    bool
		fallbackGap = math.Inf(1)
		s           shape
		c           normCurve
		eff         [10]float64
	)
	// consider reports whether c, as given or as forceSpot rewrites it
	// in place, peaks at wantSpot with margin.
	consider := func(c *normCurve) bool {
		if !c.monotone() {
			return false
		}
		c.efficiencies(&eff)
		spot, best, second := peakSpot(&eff)
		if spot == wantSpot && spotMargin(best, second) >= peakMargin {
			return true
		}
		if forceSpot(c, &eff, wantSpot, ep) {
			return true
		}
		if gap := math.Abs(spot - wantSpot); gap < fallbackGap && spotMargin(best, second) >= peakMargin {
			fallback, haveFall, fallbackGap = *c, true, gap
		}
		return false
	}
	for attempt := 0; attempt < 200; attempt++ {
		// One shape degree of freedom comes from the area constraint
		// (continuous integral ∫s = 1/2 + a/6 + b/12 ≈ grid area); the
		// other is sampled.
		a := -1.0 + 2.0*rng.Float64()
		b := 12 * (gTarget - 0.5 - a/6)
		if b < -1.6 || b > 1.6 {
			continue
		}
		s.eval(a, b)
		if !s.admissible() {
			continue
		}
		k, ok := s.idleForEP(ep)
		if !ok {
			continue
		}
		if s.curve(&c, k); consider(&c) {
			return c
		}
	}
	// Relax the idle constraint: free search over the family.
	for attempt := 0; attempt < 400; attempt++ {
		a := -1.0 + 2.0*rng.Float64()
		b := -1.2 + 2.4*rng.Float64()
		s.eval(a, b)
		if !s.admissible() {
			continue
		}
		k, ok := s.idleForEP(ep)
		if !ok {
			continue
		}
		if s.curve(&c, k); consider(&c) {
			return c
		}
	}
	if haveFall {
		return fallback
	}
	// Last resort: a plain linear curve with the exact EP (idle 1−EP),
	// valid for any EP ≤ ~0.98; steeper EPs always admit a cubic above,
	// so this branch only serves degenerate inputs.
	k := 1 - ep
	if k < 0.015 {
		k = 0.015
	}
	s.eval(0, 0)
	s.curve(&c, k)
	return c
}

// forceSpot nudges the power at the desired peak-efficiency level just
// low enough to win the argmax with margin, then re-blends the curve to
// the exact EP and verifies the spot survived; on success it replaces
// *c with the result. eff holds c's efficiencies. It never forces a
// peak at 100% (the level's power is pinned to 1 by normalization).
func forceSpot(c *normCurve, eff *[10]float64, spot, ep float64) bool {
	if spot >= 1 {
		return false
	}
	idx := -1
	for i, u := range levelGrid {
		if u == spot {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	maxOther := 0.0
	for i, e := range eff {
		if i != idx && e > maxOther {
			maxOther = e
		}
	}
	// p at the spot must satisfy u/p ≥ margin·maxOther.
	need := spot / (maxOther * (peakMargin + 0.004))
	if need >= c.levels[idx] {
		return false // argmax was already elsewhere by margin
	}
	out := *c
	out.levels[idx] = need
	if !out.monotone() {
		return false
	}
	out.blendToEP(ep)
	if !out.monotone() {
		return false
	}
	var outEff [10]float64
	out.efficiencies(&outEff)
	if s, best, second := peakSpot(&outEff); s != spot || spotMargin(best, second) < peakMargin {
		return false
	}
	*c = out
	return true
}

func clampF(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// flatRef is a nearly flat reference curve (EP ≈ 0.05) used to pull a
// handcrafted curve's EP down.
var flatRef = func() normCurve {
	var c normCurve
	c.idle = 0.95
	for i := range c.levels {
		c.levels[i] = 0.95 + 0.05*levelGrid[i]
	}
	return c
}()

// convexRef is a super-proportional reference (p = u², EP ≈ 1.33) used
// to pull a handcrafted curve's EP up.
var convexRef = func() normCurve {
	var c normCurve
	for i, u := range levelGrid {
		c.levels[i] = u * u
	}
	return c
}()

// The references' EPs, computed once.
var (
	flatRefEP   = flatRef.ep()
	convexRefEP = convexRef.ep()
)

// blendToEP adjusts a handcrafted curve, in place, to an exact EP
// target by convex blending with a reference curve on the far side of
// the target. EP is a linear functional of the curve, so the blend
// weight solves exactly: λ = (target − ep(curve)) / (ep(ref) −
// ep(curve)). Handcrafted curves sit close to their targets, so λ stays
// small and the curve's qualitative features (crossing structure, peak
// spot) survive; the anchor tests assert them after blending.
func (c *normCurve) blendToEP(target float64) {
	base := c.ep()
	if base == target {
		return
	}
	ref, refEP := &flatRef, flatRefEP
	if target > base {
		ref, refEP = &convexRef, convexRefEP
	}
	lambda := (target - base) / (refEP - base)
	c.idle = (1-lambda)*c.idle + lambda*ref.idle
	for i := range c.levels {
		c.levels[i] = (1-lambda)*c.levels[i] + lambda*ref.levels[i]
	}
}
