// Package stats provides histograms, metric computation and report formatting
// for the DBP simulator.
//
// The package is deliberately free of simulator dependencies: it consumes
// plain numbers (instruction counts, cycle counts, per-thread IPCs) and
// produces the throughput and fairness metrics used throughout the paper:
// weighted speedup, harmonic speedup and maximum slowdown.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket histogram over float64 samples.
type Histogram struct {
	// Bounds are the inclusive upper bounds of each bucket except the last,
	// which is open-ended. len(Counts) == len(Bounds)+1.
	Bounds []float64
	Counts []uint64
	N      uint64
	Sum    float64
	Min    float64
	Max    float64
}

// NewHistogram builds a histogram with the given ascending bucket bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		Bounds: b,
		Counts: make([]uint64, len(b)+1),
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.Bounds, x)
	h.Counts[i]++
	h.N++
	h.Sum += x
	if x < h.Min {
		h.Min = x
	}
	if x > h.Max {
		h.Max = x
	}
}

// MeanValue returns the mean of all observed samples (0 if none).
func (h *Histogram) MeanValue() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// String renders a compact one-line summary.
func (h *Histogram) String() string {
	if h.N == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d mean=%.2f min=%.2f max=%.2f}", h.N, h.MeanValue(), h.Min, h.Max)
}
