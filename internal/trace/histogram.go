package trace

import (
	"fmt"
	"math"
)

// Hist is a demand trace folded into a weighted histogram: the trace
// compression layer of the composition optimizer. Steady-state fleet
// power is a function of instantaneous demand only, so scoring a
// candidate fleet against the trace needs one power evaluation per
// occupied cell instead of one per step — O(cells) instead of
// O(steps), ~70× fewer evaluations for a 1-minute week at 128 bins.
//
// A demand-only fold (Compress) has one cell per occupied demand bin.
// Under a time-varying tariff billed energy is a demand×rate product
// whose covariance a demand-only fold cannot see, so Compress2D also
// keys each step by the bin of its FIRST rate set (the objective's
// primary signal) and keeps per-cell conditional means of every rate
// set; trace-weighted carbon or cost is then a double sum over
// occupied cells. Additional sets (a price profile alongside carbon,
// other regions' scaled copies of the same shape) ride along with
// their own per-cell means; sets that share the primary's shape are
// constant within its rate bins, so their fold is as tight as the
// primary's.
//
// Each occupied cell carries the MEAN demand of the steps that landed
// in it (not the bin center), so the histogram preserves the trace's
// total offered load exactly and the energy estimate is exact for any
// fleet whose power curve is linear across each cell's demand span.
// The residual error for piecewise-linear fleets is bounded by the
// curvature across one bin width and shrinks as bins grow (see
// TestHistogramErrorShrinksWithBins); exact transition/hysteresis
// accounting is deliberately out of scope — the optimizer replays its
// top-k candidates through fleetsim for that.
//
// Determinism contract: both entry points run one accumulator, a
// single pass in step order with `sum += d; count++` per cell, and
// cells are emitted demand-ascending then rate-ascending. When every
// rate is bit-identical (a constant profile) each demand bin occupies
// exactly one cell and BinOps/Weight are Float64bits-identical to the
// demand-only fold of the same trace.
type Hist struct {
	// StepSeconds is the sampling period of the folded trace.
	StepSeconds float64
	// Steps is the total number of trace steps (the sum of Weight).
	Steps int
	// BinOps is the mean demand of each occupied cell.
	BinOps []float64
	// Weight is the step count of each occupied cell.
	Weight []float64
	// Rates[s][c] is rate set s's mean rate within cell c; nil for a
	// demand-only fold.
	Rates [][]float64
	// DemandBins is the number of occupied demand bins: len(BinOps)
	// for a demand-only fold, at most that for a joint one.
	DemandBins int
	// PeakOps and MinOps are the exact trace extremes — feasibility
	// checks (capacity ≥ peak) must not depend on bin resolution.
	PeakOps, MinOps float64
	// MeanOps is the exact trace mean.
	MeanOps float64
}

// Duration returns the folded trace length in seconds.
func (h *Hist) Duration() float64 {
	return h.StepSeconds * float64(h.Steps)
}

// Cells returns the number of occupied cells.
func (h *Hist) Cells() int {
	return len(h.BinOps)
}

// Compress folds the trace into a demand histogram with at most bins
// equi-width bins over [min, max] demand. Empty bins are dropped. The
// fold is a single deterministic pass; identical traces produce
// identical histograms.
func (t *Trace) Compress(bins int) (*Hist, error) {
	return t.fold(bins, 1, nil)
}

// Compress2D folds the trace jointly with aligned per-step rate
// signals into at most bins×rateBins cells: equi-width demand bins
// over [min, max] demand crossed with equi-width rate bins over the
// FIRST signal's [min, max] rate. Every rate set must be exactly one
// rate per trace step (use IntensityProfile.Align) and finite and
// non-negative — violations are typed *RateError / *AlignError. Empty
// cells are dropped. The fold is a single deterministic pass;
// identical inputs produce identical histograms.
func (t *Trace) Compress2D(bins, rateBins int, rateSets ...[]float64) (*Hist, error) {
	if len(rateSets) == 0 {
		return nil, fmt.Errorf("trace: Compress2D needs at least one rate set")
	}
	return t.fold(bins, rateBins, rateSets)
}

// fold is the one accumulator behind Compress and Compress2D.
func (t *Trace) fold(bins, rateBins int, rateSets [][]float64) (*Hist, error) {
	if bins < 1 {
		return nil, fmt.Errorf("trace: invalid bin count %d", bins)
	}
	if rateBins < 1 {
		return nil, fmt.Errorf("trace: invalid rate bin count %d", rateBins)
	}
	if len(t.DemandOps) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	if t.StepSeconds <= 0 {
		return nil, fmt.Errorf("trace: invalid step %v s", t.StepSeconds)
	}
	steps := len(t.DemandOps)
	for s, rates := range rateSets {
		if len(rates) != steps {
			return nil, &AlignError{TraceStep: t.StepSeconds,
				Reason: fmt.Sprintf("rate set %d has %d rates for %d trace steps", s, len(rates), steps)}
		}
		for i, r := range rates {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				return nil, &RateError{Field: fmt.Sprintf("rateSets[%d]", s), Index: i, Value: r}
			}
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range t.DemandOps {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("trace: non-finite demand %v", d)
		}
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	var primary []float64
	rlo, rhi := 0.0, 0.0
	if len(rateSets) > 0 {
		primary = rateSets[0]
		rlo, rhi = math.Inf(1), math.Inf(-1)
		for _, r := range primary {
			rlo = math.Min(rlo, r)
			rhi = math.Max(rhi, r)
		}
	}
	width := (hi - lo) / float64(bins)
	rwidth := (rhi - rlo) / float64(rateBins)

	// Dense (demand bin)*(rate bin) accumulators, demand-major so a
	// demand-only fold and a constant profile (every step in rate bin
	// 0) touch the same cells in the same order.
	cells := bins * rateBins
	sum := make([]float64, cells)
	count := make([]float64, cells)
	rsum := make([][]float64, len(rateSets))
	for s := range rateSets {
		rsum[s] = make([]float64, cells)
	}
	var total float64
	for i, d := range t.DemandOps {
		b := 0
		if width > 0 {
			b = int((d - lo) / width)
			if b >= bins {
				b = bins - 1
			}
		}
		rb := 0
		if rwidth > 0 {
			rb = int((primary[i] - rlo) / rwidth)
			if rb >= rateBins {
				rb = rateBins - 1
			}
		}
		c := b*rateBins + rb
		sum[c] += d
		count[c]++
		for s := range rateSets {
			rsum[s][c] += rateSets[s][i]
		}
		total += d
	}
	h := &Hist{
		StepSeconds: t.StepSeconds,
		Steps:       steps,
		PeakOps:     hi,
		MinOps:      lo,
		MeanOps:     total / float64(steps),
	}
	if len(rateSets) > 0 {
		h.Rates = make([][]float64, len(rateSets))
	}
	lastBin := -1
	for c := 0; c < cells; c++ {
		if count[c] == 0 {
			continue
		}
		if b := c / rateBins; b != lastBin {
			h.DemandBins++
			lastBin = b
		}
		h.BinOps = append(h.BinOps, sum[c]/count[c])
		h.Weight = append(h.Weight, count[c])
		for s := range rateSets {
			h.Rates[s] = append(h.Rates[s], rsum[s][c]/count[c])
		}
	}
	return h, nil
}
