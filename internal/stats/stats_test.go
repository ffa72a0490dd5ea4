package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanMedianStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("Mean = %v", m)
	}
	if m := Median(xs); !almostEq(m, 4.5, 1e-12) {
		t.Fatalf("Median = %v", m)
	}
	if s := Stddev(xs); !almostEq(s, 2.138089935299395, 1e-9) {
		t.Fatalf("Stddev = %v", s)
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Stddev([]float64{1}) != 0 {
		t.Fatal("empty-input conventions")
	}
}

func TestMWUCompleteSeparationFiveVsFive(t *testing.T) {
	// The paper's Table 5 setting: 5 trials each, ClosureX always higher.
	a := []float64{379, 380, 381, 382, 383}
	b := []float64{93, 94, 95, 96, 97}
	p := MannWhitneyU(a, b)
	if !almostEq(p, 2.0/252.0, 1e-9) {
		t.Fatalf("p = %v, want 0.0079...", p)
	}
}

func TestMWUIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	p := MannWhitneyU(a, a)
	if p < 0.99 {
		t.Fatalf("identical samples p = %v, want ~1", p)
	}
}

func TestMWUInterleaved(t *testing.T) {
	a := []float64{1, 3, 5, 7, 9}
	b := []float64{2, 4, 6, 8, 10}
	p := MannWhitneyU(a, b)
	if p < 0.5 {
		t.Fatalf("interleaved p = %v, want large", p)
	}
}

func TestMWUSymmetry(t *testing.T) {
	a := []float64{10, 20, 30, 40, 50}
	b := []float64{5, 15, 22, 28, 33}
	if p1, p2 := MannWhitneyU(a, b), MannWhitneyU(b, a); !almostEq(p1, p2, 1e-12) {
		t.Fatalf("asymmetric: %v vs %v", p1, p2)
	}
}

func TestMWUWithTies(t *testing.T) {
	a := []float64{1, 1, 2, 2}
	b := []float64{1, 2, 2, 3}
	p := MannWhitneyU(a, b)
	if p <= 0 || p > 1 {
		t.Fatalf("tied p = %v out of range", p)
	}
}

func TestMWUEmpty(t *testing.T) {
	if p := MannWhitneyU(nil, []float64{1}); p != 1 {
		t.Fatalf("empty p = %v", p)
	}
}

func TestMWUNormalApproxLargeSeparated(t *testing.T) {
	var a, b []float64
	for i := 0; i < 15; i++ {
		a = append(a, 100+float64(i))
		b = append(b, float64(i))
	}
	p := MannWhitneyU(a, b)
	if p > 1e-4 {
		t.Fatalf("large separated p = %v, want tiny", p)
	}
	// And overlapping large samples give a large p.
	var c, d []float64
	for i := 0; i < 15; i++ {
		c = append(c, float64(i))
		d = append(d, float64(i)+0.5)
	}
	if p := MannWhitneyU(c, d); p < 0.05 {
		t.Fatalf("overlapping large p = %v, want > 0.05", p)
	}
}

func TestMWUExactMatchesKnownValue(t *testing.T) {
	// 3 vs 3, complete separation: p = 2/C(6,3) = 0.1 — the classic
	// "cannot reach significance with 3 trials" result.
	a := []float64{4, 5, 6}
	b := []float64{1, 2, 3}
	if p := MannWhitneyU(a, b); !almostEq(p, 0.1, 1e-9) {
		t.Fatalf("3v3 p = %v, want 0.1", p)
	}
}

func TestNormalCDF(t *testing.T) {
	if !almostEq(normalCDF(0), 0.5, 1e-12) {
		t.Fatal("CDF(0)")
	}
	if !almostEq(normalCDF(1.96), 0.975, 1e-3) {
		t.Fatalf("CDF(1.96) = %v", normalCDF(1.96))
	}
}

// TestQuartilesMatchPython pins Quartiles to Python's
// statistics.quantiles(xs, n=4), on the vectors the repository benchmark
// pins its own quartiles to.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 7}, 1.8125, 8.5},
		{[]float64{5, 1}, 0, 6},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := Quartiles(c.in)
		if !almostEq(q1, c.q1, 1e-12) || !almostEq(q3, c.q3, 1e-12) {
			t.Errorf("Quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}
