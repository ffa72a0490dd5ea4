// Package stats provides the statistical machinery the evaluation uses:
// the Mann-Whitney U test (exact for the paper's 5-vs-5 trial design,
// normal approximation for larger samples) and summary helpers. With five
// trials per configuration and complete separation, the exact two-sided p
// is 2/C(10,5) = 0.0079 — the ρ the paper reports throughout Table 5.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the middle value (mean of middle two for even lengths).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Quartiles returns the first and third quartile of xs by Python's
// statistics.quantiles(xs, n=4) rule (the "exclusive" method), the same
// rule the repository benchmark reports its spreads with. With one value
// both quartiles are that value; with none both are 0.
func Quartiles(xs []float64) (q1, q3 float64) {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n < 2 {
		return Median(c), Median(c)
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return q(1), q(3)
}

// Stddev returns the sample standard deviation.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// uStatistic computes the Mann-Whitney U of group a versus group b with
// tie handling (ties count 0.5).
func uStatistic(a, b []float64) float64 {
	u := 0.0
	for _, x := range a {
		for _, y := range b {
			switch {
			case x > y:
				u++
			case x == y:
				u += 0.5
			}
		}
	}
	return u
}

// MannWhitneyU returns the two-sided p-value for the hypothesis that a and
// b come from the same distribution. For n1+n2 <= 20 the exact permutation
// distribution is enumerated (correct under ties); larger samples use the
// normal approximation with tie correction.
func MannWhitneyU(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	if len(a)+len(b) <= 20 {
		return exactMWU(a, b)
	}
	return approxMWU(a, b)
}

func exactMWU(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	all := append(append([]float64(nil), a...), b...)
	mu := float64(n1*n2) / 2
	obs := math.Abs(uStatistic(a, b) - mu)

	total := 0
	extreme := 0
	n := n1 + n2
	idx := make([]int, n1)
	// Enumerate all C(n, n1) choices of which observations form group A.
	groupA := make([]float64, n1)
	groupB := make([]float64, 0, n2)
	inA := make([]bool, n)
	var enumerate func(start, k int)
	enumerate = func(start, k int) {
		if k == n1 {
			groupB = groupB[:0]
			for i := 0; i < n; i++ {
				if !inA[i] {
					groupB = append(groupB, all[i])
				}
			}
			for i, j := range idx {
				groupA[i] = all[j]
			}
			total++
			if math.Abs(uStatistic(groupA, groupB)-mu) >= obs-1e-9 {
				extreme++
			}
			return
		}
		for i := start; i <= n-(n1-k); i++ {
			idx[k] = i
			inA[i] = true
			enumerate(i+1, k+1)
			inA[i] = false
		}
	}
	enumerate(0, 0)
	return float64(extreme) / float64(total)
}

func approxMWU(a, b []float64) float64 {
	n1, n2 := float64(len(a)), float64(len(b))
	u := uStatistic(a, b)
	mu := n1 * n2 / 2

	// Tie correction over the combined sample.
	all := append(append([]float64(nil), a...), b...)
	sort.Float64s(all)
	n := n1 + n2
	tieSum := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j] == all[i] {
			j++
		}
		t := float64(j - i)
		if t > 1 {
			tieSum += t*t*t - t
		}
		i = j
	}
	sigma2 := n1 * n2 / 12 * ((n + 1) - tieSum/(n*(n-1)))
	if sigma2 <= 0 {
		return 1
	}
	z := math.Abs(u-mu) / math.Sqrt(sigma2)
	// Continuity correction.
	z = math.Max(0, z-0.5/math.Sqrt(sigma2))
	return 2 * (1 - normalCDF(z))
}

// normalCDF is the standard normal CDF via erf.
func normalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
