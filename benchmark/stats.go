package main

import (
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted samples, with the
// rounding internal/metrics and obsv.Registry use, so a pool of one run's
// samples reads the same here as in that run's Result.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// median returns the middle of vs (mean of the middle two when even). vs is
// not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// ratePoint is the seed-averaged delivery ratio at one offered rate.
type ratePoint struct {
	Rate     float64
	Delivery float64
}

// knee returns the offered rate at which delivery crosses threshold,
// linearly interpolated between the two bracketing grid rates. points must be
// sorted by ascending rate. A sweep that never drops below the threshold
// reads its highest rate; one that is never at or above it reads its lowest.
func knee(points []ratePoint, threshold float64) float64 {
	if len(points) == 0 {
		return 0
	}
	if points[0].Delivery < threshold {
		return points[0].Rate
	}
	for i := 1; i < len(points); i++ {
		lo, hi := points[i-1], points[i]
		if hi.Delivery < threshold {
			frac := (lo.Delivery - threshold) / (lo.Delivery - hi.Delivery)
			return lo.Rate + frac*(hi.Rate-lo.Rate)
		}
	}
	return points[len(points)-1].Rate
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, and 0 when b is 0 (a metric a workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durationsToSortedMS converts and sorts latency samples for quantile.
func durationsToSortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}
