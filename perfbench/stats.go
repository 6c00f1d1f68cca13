package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p90 of 20 samples is the second-largest sample, not a percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs; xs need not be sorted. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(p, len(s)), 1)-1]
}

// rank is the nearest-rank position (1-based) of the p-th percentile
// of n samples. The tolerance keeps float rounding from pushing an
// exact rank such as 99.9% of 10,000 one position up.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// median returns the middle sample, or the mean of the two middle
// samples of an even count. It returns NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return percentile(xs, 50)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a timing may be reported at, lowest
// first.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minTail of n samples beyond it, and false when even the
// median has fewer (n < 20).
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rank(p, n) >= minTail {
			best, ok = p, true
		}
	}
	return best, ok
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// validName reports whether a metric name is non-empty, at most 64
// characters of [A-Za-z0-9_.-], and starts with a letter or digit.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case (r == '_' || r == '.' || r == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// describeTiming renders a latency distribution with its sample count
// and the highest percentile the count supports.
func describeTiming(name string, xs []float64, unit string) string {
	n := len(xs)
	p, ok := tailPercentile(n)
	if !ok {
		return fmt.Sprintf("%s: n=%d median=%.4g %s (too few samples for a tail percentile)", name, n, median(xs), unit)
	}
	return fmt.Sprintf("%s: n=%d median=%.4g %s p%g=%.4g %s (%d samples beyond)",
		name, n, median(xs), unit, p, percentile(xs, p), unit, n-rank(p, n))
}
