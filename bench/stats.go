package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads printed here match the ones the acceptance check computes.
// With fewer than two values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[percentileRank(len(s), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile among n
// samples.
func percentileRank(n int, p float64) int {
	// The epsilon keeps float rounding (99.99/100*1e5 = 99990.00000000001)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest candidate percentile that has at least
// ten of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-percentileRank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// geomean returns the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geomean of non-positive value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
