package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least q·n samples at or below it. It never
// interpolates, so every reported percentile is a latency some request
// actually had. n is returned beside it because a percentile without
// its sample count cannot be judged (p95 of 138 samples has 7 beyond).
func quantile(xs []float64, q float64) (v float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n
}

// median is the conventional median (mean of the two middle samples
// for even n) — used for medians of differences and of repeated runs,
// where interpolation is harmless and halves the jitter of tiny n.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread summarizes repeated executions of one metric.
type spread struct {
	Median, Q1, Q3 float64
	// IQRShare is (Q3−Q1)/|median| — the figure the driver holds
	// against the metric's bound. HalfSpread is (max−min)/2/|median|.
	IQRShare, HalfSpread float64
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), because
// that is what the acceptance check uses.
func summarize(xs []float64) spread {
	n := len(xs)
	var sp spread
	if n == 0 {
		return sp
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sp.Median = median(s)
	sp.Q1, sp.Q3 = sp.Median, sp.Median
	if n >= 2 {
		sp.Q1, sp.Q3 = exclusiveQuantile(s, 1), exclusiveQuantile(s, 3)
	}
	if m := math.Abs(sp.Median); m > 0 {
		sp.IQRShare = (sp.Q3 - sp.Q1) / m
		sp.HalfSpread = (s[n-1] - s[0]) / 2 / m
	}
	return sp
}

// exclusiveQuantile is the i-th quartile cut of sorted s by the
// exclusive method: position i·(n+1)/4 with the index clamped first, so
// tiny samples extrapolate exactly as Python does.
func exclusiveQuantile(s []float64, i int) float64 {
	n := len(s)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*(n+1) - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}
