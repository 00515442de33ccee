package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "exclusive of nothing" R-7 rule), or 0 for an empty
// slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that leaves at least
// ten samples beyond it, so a reported tail never rests on a handful of
// outliers. It returns 0 when even the median has fewer than ten samples
// above it (fewer than 20 samples).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		beyond := float64(n) * (100 - p) / 100
		if beyond >= 10-1e-6 { // tolerate float error in 100-p
			return p
		}
	}
	return 0
}

// tail returns the tail percentile chosen by tailPercentile and the value at
// it; ok is false when there are too few samples for any tail.
func tail(xs []float64) (pct, value float64, ok bool) {
	pct = tailPercentile(len(xs))
	if pct == 0 {
		return 0, 0, false
	}
	return pct, quantile(xs, pct/100), true
}

// sum adds up xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
