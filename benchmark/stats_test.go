package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(p=%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]uint32{7}, 99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := percentile([]int64(nil), 50); got != 0 {
		t.Errorf("no samples: got %d", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	// 20000 samples leave 200 above the p99 rank; 100 leave 1.
	for _, tc := range []struct{ n, want int }{{20000, 200}, {100, 1}, {99, 0}, {0, 0}} {
		if got := samplesBeyond(tc.n, 99); got != tc.want {
			t.Errorf("samplesBeyond(%d, 99) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values    []float64
		q1, m, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.values)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.values, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
		if got, want := spreadFrac(tc.values), (tc.q3-tc.q1)/tc.m; math.Abs(got-want) > 1e-12 {
			t.Errorf("spreadFrac(%v) = %v, want %v", tc.values, got, want)
		}
		if got := median(tc.values); got != tc.m {
			t.Errorf("median(%v) = %v, want %v", tc.values, got, tc.m)
		}
	}
	if q1, m, q3 := quartiles(nil); q1 != 0 || m != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v", q1, m, q3)
	}
}

func TestSeriesMarksUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	noisy := newSeries([]float64{80, 90, 100, 110, 120}, 0.10) // IQR 30 on median 100
	if !noisy.Unresolved {
		t.Errorf("spread %.2f over bound 0.10 must be unresolved", noisy.SpreadFrac)
	}
	steady := newSeries([]float64{99, 100, 100, 100, 101}, 0.10)
	if steady.Unresolved {
		t.Errorf("spread %.2f within bound 0.10 must be resolved", steady.SpreadFrac)
	}
}
