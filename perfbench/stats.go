package main

import (
	"math"
	"sort"
)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minTail = 10

// candidatePercentiles are the percentiles a latency summary may report,
// in increasing order.
var candidatePercentiles = []float64{50, 90, 95, 99, 99.9}

// rank is the 1-based nearest-rank position of the p-th percentile among
// n sorted samples.  The small tolerance keeps decimal percentiles such
// as 99.9 from rounding up a whole rank.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailFits reports whether n samples leave at least minTail beyond the
// p-th percentile.
func tailFits(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// highestPercentile returns the highest candidate percentile that n
// samples support under the percentile rule, or 0 when none does.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range candidatePercentiles {
		if tailFits(n, p) {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place); ok is false when the sample count does not satisfy
// the percentile rule for p.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 || !tailFits(len(xs), p) {
		return 0, false
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1], true
}

// median returns the median of xs without modifying it (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
