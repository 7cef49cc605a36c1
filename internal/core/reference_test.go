package core_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// The reference forms below recompute the curve metrics from the
// public slices (Points, NormalizedPower, EEValues, NormalizedEE), the
// way the metrics were first written. The production metrics read the
// points in place without building those slices and must match bit for
// bit.

func refArea(c *core.Curve) float64 {
	pts, norm := c.Points(), c.NormalizedPower()
	var area float64
	for i := 1; i < len(pts); i++ {
		du := pts[i].Utilization - pts[i-1].Utilization
		area += du * (norm[i] + norm[i-1]) / 2
	}
	return area
}

func refPowerAt(c *core.Curve, u float64) float64 {
	pts, norm := c.Points(), c.NormalizedPower()
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1].Utilization, pts[i].Utilization
		if u <= hi {
			frac := (u - lo) / (hi - lo)
			return norm[i-1] + frac*(norm[i]-norm[i-1])
		}
	}
	return norm[len(norm)-1]
}

func refPeakEE(c *core.Curve) (value float64, utils []float64) {
	pts, ee := c.Points(), c.EEValues()
	for _, v := range ee[1:] {
		if v > value {
			value = v
		}
	}
	for i, v := range ee[1:] {
		if v >= value*(1-core.PeakEETolerance) {
			utils = append(utils, pts[i+1].Utilization)
		}
	}
	return value, utils
}

func refRegions(c *core.Curve, threshold float64) []core.Interval {
	pts, ee := c.Points(), c.NormalizedEE()
	us := make([]float64, len(pts))
	for i, p := range pts {
		us[i] = p.Utilization
	}
	var regions []core.Interval
	inside := false
	var start float64
	for i := 1; i < len(us); i++ {
		above := ee[i] >= threshold
		if above && !inside {
			start = us[i]
			if i > 1 && ee[i-1] < threshold {
				t := (threshold - ee[i-1]) / (ee[i] - ee[i-1])
				start = us[i-1] + t*(us[i]-us[i-1])
			}
			inside = true
		}
		if !above && inside {
			end := us[i-1]
			if ee[i-1] > threshold {
				t := (ee[i-1] - threshold) / (ee[i-1] - ee[i])
				end = us[i-1] + t*(us[i]-us[i-1])
			}
			regions = append(regions, core.Interval{Lo: start, Hi: end})
			inside = false
		}
	}
	if inside {
		regions = append(regions, core.Interval{Lo: start, Hi: 1})
	}
	return regions
}

// oracleGrid is the utilization grid PowerAt is compared on.
var oracleGrid = []float64{0, 0.01, 0.05, 0.1, 0.15, 0.25, 1.0 / 3, 0.45, 0.5, 0.55,
	2.0 / 3, 0.7, 0.75, 0.85, 0.9, 0.95, 0.99, 1}

// checkReference compares every rewritten metric of c against its
// reference form, bit for bit.
func checkReference(t *testing.T, name string, c *core.Curve) {
	t.Helper()
	same := func(metric string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s = %v, reference %v", name, metric, got, want)
		}
	}
	area := refArea(c)
	same("EP", c.EP(), 2-2*area)
	same("LinearDeviation", c.LinearDeviation(), area-(c.IdleFraction()+1)/2)
	for _, u := range oracleGrid {
		got, err := c.PowerAt(u)
		if err != nil {
			t.Fatal(err)
		}
		same("PowerAt", got, refPowerAt(c, u))
	}

	peak, utils := refPeakEE(c)
	gotPeak, gotUtils := c.PeakEE()
	same("PeakEE", gotPeak, peak)
	if len(gotUtils) != len(utils) {
		t.Fatalf("%s: PeakEE spots %v, reference %v", name, gotUtils, utils)
	}
	for i := range utils {
		same("PeakEE spot", gotUtils[i], utils[i])
	}
	wantU := 0.0
	if len(utils) > 0 {
		wantU = utils[0]
	}
	same("PeakEEUtilization", c.PeakEEUtilization(), wantU)
	wantRatio := 0.0
	if full := c.Points()[c.NumLevels()-1].EE(); full > 0 {
		wantRatio = peak / full
	}
	same("PeakOverFullRatio", c.PeakOverFullRatio(), wantRatio)

	for _, threshold := range []float64{0.9, 0.985 * wantRatio, 1, wantRatio} {
		regions := refRegions(c, threshold)
		got := c.HighEfficiencyRegions(threshold)
		if len(got) != len(regions) {
			t.Fatalf("%s: HighEfficiencyRegions(%v) = %v, reference %v", name, threshold, got, regions)
		}
		var widest core.Interval
		for i, r := range regions {
			same("region Lo", got[i].Lo, r.Lo)
			same("region Hi", got[i].Hi, r.Hi)
			if i == 0 || r.Width() > widest.Width() {
				widest = r
			}
		}
		w, ok := c.WidestHighEfficiencyRegion(threshold)
		if ok != (len(regions) > 0) {
			t.Fatalf("%s: WidestHighEfficiencyRegion(%v) found = %v with %d regions", name, threshold, ok, len(regions))
		}
		same("widest Lo", w.Lo, widest.Lo)
		same("widest Hi", w.Hi, widest.Hi)
	}
}

// TestMetricsMatchReferenceCorpus runs the reference comparison over
// every buildable curve of the seed-1 corpus, non-compliant ones
// included.
func TestMetricsMatchReferenceCorpus(t *testing.T) {
	rs, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range rs {
		c, err := r.Curve()
		if err != nil {
			continue
		}
		checkReference(t, r.ID, c)
		checked++
	}
	if checked < 477 {
		t.Fatalf("only %d corpus curves checked", checked)
	}
}

// fuzzCurve decodes 42 bytes into a standard 11-point curve: eleven
// positive powers and ten throughputs, on a coarse integer grid so that
// exact efficiency ties, flat stretches and zero-throughput levels
// occur.
func fuzzCurve(data []byte) (*core.Curve, bool) {
	if len(data) < 42 {
		return nil, false
	}
	watts := make([]float64, 10)
	ops := make([]float64, 10)
	for i := 0; i < 10; i++ {
		watts[i] = 1 + float64(binary.LittleEndian.Uint16(data[2+2*i:]))/64
		ops[i] = float64(binary.LittleEndian.Uint16(data[22+2*i:]))
	}
	idle := 1 + float64(binary.LittleEndian.Uint16(data))/64
	c, err := core.NewStandardCurve(idle, watts, ops)
	return c, err == nil
}

// FuzzMetricsMatchReference runs the reference comparison on fuzzed
// curves.
func FuzzMetricsMatchReference(f *testing.F) {
	seed := make([]byte, 42)
	for i := 0; i < 11; i++ {
		binary.LittleEndian.PutUint16(seed[2*i:], uint16(1000+300*i))
	}
	for i := 0; i < 10; i++ {
		binary.LittleEndian.PutUint16(seed[22+2*i:], uint16(5000*(i+1)))
	}
	f.Add(seed)
	// Equal powers with equal top throughput at 80% and 90%: an exact
	// peak-efficiency tie.
	tie := make([]byte, 42)
	for i := 0; i < 11; i++ {
		binary.LittleEndian.PutUint16(tie[2*i:], 1000)
	}
	for i, ops := range []uint16{5000, 10000, 15000, 20000, 25000, 30000, 35000, 60000, 60000, 50000} {
		binary.LittleEndian.PutUint16(tie[22+2*i:], ops)
	}
	f.Add(tie)
	f.Add(make([]byte, 42))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := fuzzCurve(data)
		if !ok {
			t.Skip()
		}
		checkReference(t, "fuzz", c)
	})
}
