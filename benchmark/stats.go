package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// fastestOf returns the smallest of xs, 0 for an empty slice.
func fastestOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, 0 for an empty slice. Nearest rank always returns a measured sample,
// so an exact virtual-time figure stays exact. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps a product that is a whole number in exact
	// arithmetic (99.9% of 10,000) from rounding up past it.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the percentiles a timing may be reported at, in
// ascending order.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// supportedPercentile returns the highest of tailPercentiles that has at
// least ten samples beyond it among n, or 0 when not even the median does
// (n < 20). A percentile above it rests on fewer than ten samples and is
// the sandbox's noise rather than the code's tail.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}
