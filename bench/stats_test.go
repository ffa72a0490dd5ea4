package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the acceptance spread uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 7}, 1.8125, 8.5},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestTailPercentileKeepsTenBeyond checks the rule for the reported tail:
// the highest percentile with at least ten samples beyond it.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0},
		{11, 0},   // the median of 11 has only 5 beyond
		{20, 50},  // 10 beyond the median
		{99, 50},  // p90 has 9 beyond
		{100, 90}, // p90 has 10 beyond
		{999, 90},
		{1000, 99},
		{10000, 99.9},
		{100000, 99.99},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && c.n-percentileRank(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than 10 samples beyond", c.n, got)
		}
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v, %v; want 4", g, err)
	}
	if _, err := geomean([]float64{1, 0}); err == nil {
		t.Error("geomean with a zero should fail")
	}
	if _, err := geomean(nil); err == nil {
		t.Error("geomean of nothing should fail")
	}
}
