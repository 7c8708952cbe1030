package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default "exclusive" method),
// so a spread computed here equals the one the acceptance driver
// computes from the same values. One value is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		// Taken after clamping, so the end cuts extrapolate as Python's do.
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailPermille are the candidates for a timing's reported tail (p99.9,
// p99, p95, p90), in descending order.
var tailPermille = []int{999, 990, 950, 900}

// tail returns the highest candidate percentile that still has at least
// ten samples beyond it, with its nearest-rank value. With under a
// hundred samples no candidate qualifies and the median is the only
// honest figure, so it is returned as percentile 50.
func tail(v []float64) (pct, value float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	for _, pm := range tailPermille {
		rank := (pm*n + 999) / 1000 // ceil(pm/1000 * n)
		if n-rank >= 10 {
			return float64(pm) / 10, s[rank-1]
		}
	}
	return 50, median(s)
}
