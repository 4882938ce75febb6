package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7, 3}, 5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) prints, the computation the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10, 12, 11, 13, 30}, [3]float64{10.5, 12, 21.5}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", tc.xs)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want bool
	}{
		{50, 19, false},
		{50, 20, true},
		{90, 99, false},
		{90, 100, true},
		{99, 999, false},
		{99, 1000, true},
	} {
		if got := percentileSupported(tc.p, tc.n); got != tc.want {
			t.Errorf("percentileSupported(%v, %d) = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{20, 50, true},
		{150, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
}

func TestResidualFrac(t *testing.T) {
	for _, tc := range []struct {
		untraced float64
		layers   []float64
		want     float64
	}{
		{100, []float64{40, 30, 20}, 0.10},
		{100, []float64{60, 50}, -0.10},
		{80, []float64{80}, 0},
		{50, nil, 1},
	} {
		if got := residualFrac(tc.untraced, tc.layers...); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("residualFrac(%v, %v) = %v, want %v", tc.untraced, tc.layers, got, tc.want)
		}
	}
}
