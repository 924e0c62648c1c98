// Package stat provides the statistical primitives shared across the
// repository: moments, covariance and correlation, empirical CDFs,
// information criteria and differencing.
//
// All functions are pure and operate on float64 slices. Functions that are
// undefined on empty input return NaN rather than panicking, mirroring the
// behaviour of the IEEE-754 operations they compose.
package stat

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance of xs (divides by n−1),
// or NaN when fewer than two observations are given.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Covariance returns the sample covariance between xs and ys (divides by
// n−1), or NaN when the lengths differ or fewer than two pairs are given.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1)
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
// It returns NaN when either series is constant or the input is degenerate;
// this matches the paper's definition of spatial correlation (covariance over
// the product of standard deviations).
func Correlation(xs, ys []float64) float64 {
	c := Covariance(xs, ys)
	sx := math.Sqrt(SampleVariance(xs))
	sy := math.Sqrt(SampleVariance(ys))
	if sx == 0 || sy == 0 {
		return math.NaN()
	}
	return c / (sx * sy)
}

// PairwiseCorrelations returns the Pearson correlation for every unordered
// pair of rows in series (each row is one node's time series). NaN values
// (constant series) are omitted from the result.
func PairwiseCorrelations(series [][]float64) []float64 {
	var out []float64
	for i := 0; i < len(series); i++ {
		for j := i + 1; j < len(series); j++ {
			r := Correlation(series[i], series[j])
			if !math.IsNaN(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// ECDF is an empirical cumulative distribution function over a fixed sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from the sample xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns F(x) = P(X ≤ x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(e.sorted, x)
	// Advance over ties so that At is right-continuous (P(X <= x)).
	for idx < len(e.sorted) && e.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(e.sorted))
}

// AICc returns the corrected Akaike information criterion for a Gaussian
// model with n observations, k estimated parameters, and residual sum of
// squares rss. When the correction term denominator n−k−1 is non-positive the
// criterion is +Inf, which makes over-parameterized models lose any model
// selection they take part in. A perfect fit (rss = 0) is −Inf, the limit of
// the n·log(rss/n) term, so it wins rather than ranking with the invalid
// (negative rss) at +Inf.
func AICc(n, k int, rss float64) float64 {
	denom := float64(n - k - 1)
	if n <= 0 || rss < 0 || denom <= 0 {
		return math.Inf(1)
	}
	if rss == 0 {
		return math.Inf(-1)
	}
	aic := float64(n)*math.Log(rss/float64(n)) + 2*float64(k)
	return aic + 2*float64(k)*float64(k+1)/denom
}

// Diff returns the lag-k difference of xs: out[i] = xs[i+k] − xs[i], with
// length len(xs)−k. It returns nil when xs is shorter than k+1.
func Diff(xs []float64, k int) []float64 {
	if k <= 0 || len(xs) <= k {
		return nil
	}
	out := make([]float64, len(xs)-k)
	for i := range out {
		out[i] = xs[i+k] - xs[i]
	}
	return out
}
