package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. It is exact — the value is always one of the samples —
// which is the point of keeping raw samples instead of histogram buckets.
func percentile[T int64 | uint32](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond is how many samples lie strictly above the p-th
// percentile's rank: the support a tail percentile is reported with.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// quartiles returns the first quartile, median and third quartile of
// values with the exclusive method, matching Python's
// statistics.quantiles(values, n=4) — the rule the acceptance driver
// applies to runs, applied here to rounds. Fewer than two values have no
// spread: all three are the single value (or 0).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of the 4-quantile cut points
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4) // may leave [0,4): Python extrapolates too
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle value of values.
func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// spreadFrac is the interquartile range of values as a share of their
// median: the round-to-round (or run-to-run) noise a bound is judged
// against.
func spreadFrac(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
