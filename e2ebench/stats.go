package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minimum returns the smallest of xs (NaN when empty).
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[0]
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so the spread printed here is the one the acceptance rule computes.
// Fewer than two values give NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailSamples is how many samples must lie beyond a percentile before it
// describes a tail rather than the largest few values.
const tailSamples = 10

// tailPercentile returns the highest of the p99, p90 and p75 percentiles
// (nearest rank) that has at least tailSamples samples beyond it. With too
// few samples for any of them it returns the median alone, with q = 0.5
// and ok false.
func tailPercentile(xs []float64) (q, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, pct := range []int{99, 90, 75} {
		rank := (pct*n + 99) / 100 // ceil(pct·n/100), 1-based
		if rank >= 1 && n-rank >= tailSamples {
			return float64(pct) / 100, s[rank-1], true
		}
	}
	return 0.5, median(xs), false
}
