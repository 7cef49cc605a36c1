package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as supported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted, or NaN when sorted is empty.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}

// tailSupported reports whether n samples leave at least minBeyond of
// them strictly above the nearest-rank q-quantile.
func tailSupported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// median returns the middle of sorted (the mean of the two middle
// samples for an even count), or NaN when sorted is empty.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of sorted with the
// same rule as Python's statistics.quantiles(data, n=4) (the default
// "exclusive" method), so the spreads the benchmark prints match the
// ones computed over its runs.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
