package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending-sorted sample: the smallest value with at least q of the sample
// at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// samplesBeyond is how many samples lie strictly above the nearest-rank
// q-quantile position of a sample of n.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// supportsPercentile reports whether a sample of n has at least ten samples
// beyond its q-quantile, the rule under which a tail percentile is reported.
func supportsPercentile(n int, q float64) bool { return samplesBeyond(n, q) >= 10 }

// median returns the median of xs (the mean of the two middle values for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
