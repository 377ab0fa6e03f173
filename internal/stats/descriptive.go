// Package stats implements the statistical machinery the BST methodology is
// built from: descriptive statistics, kernel density estimation, Gaussian
// mixture models fit with expectation-maximization, k-means, and the random
// distributions used by the synthetic dataset generators.
//
// Everything is implemented from the standard library only. The package is
// deliberately small-surface: plain float64 slices in, plain values out, so
// callers (the BST core, the analysis pipelines, the benches) can compose it
// without adapters.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by routines that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
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

// Variance returns the population variance of xs (divide by n), or 0 when
// fewer than two observations are present.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// SampleVariance returns the unbiased sample variance (divide by n-1).
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return Variance(xs) * float64(n) / float64(n-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the same convention as numpy's
// default). The input need not be sorted. Returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted computes the interpolated quantile of an already-sorted
// sample.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// ConsistencyFactor implements the per-user consistency metric from §4.1 of
// the paper: the ratio of the mean to the 95th percentile of a user's
// repeated measurements. Values near 1 indicate a consistent metric; the
// paper reports a median of 0.87 for upload and 0.58 for download speeds.
// Returns 0 when the 95th percentile is 0 (all-zero sample).
func ConsistencyFactor(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p95 := Quantile(xs, 0.95)
	if p95 == 0 {
		return 0
	}
	return Mean(xs) / p95
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len reports the number of observations behind the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P(X <= x), the fraction of observations at or below x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Index of the first element > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return quantileSorted(e.sorted, q)
}

// Points returns up to n evenly spaced (x, cumFraction) pairs suitable for
// plotting the CDF curves shown throughout the paper. For n <= 0 or n larger
// than the sample, every observation is emitted.
func (e *ECDF) Points(n int) []Point {
	m := len(e.sorted)
	if m == 0 {
		return nil
	}
	if n <= 0 || n > m {
		n = m
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		// Sample order statistics at evenly spaced ranks, always
		// including the last.
		idx := m - 1
		if n > 1 {
			idx = i * (m - 1) / (n - 1)
		}
		pts = append(pts, Point{
			X: e.sorted[idx],
			Y: float64(idx+1) / float64(m),
		})
	}
	return pts
}

// Point is an (x, y) sample of a curve (CDF, KDE, ...).
type Point struct {
	X, Y float64
}

// Histogram bins xs into nbins equal-width bins over [min, max] and returns
// the bin edges (nbins+1 values) and counts (nbins values).
func Histogram(xs []float64, nbins int) (edges []float64, counts []int) {
	if nbins <= 0 || len(xs) == 0 {
		return nil, nil
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		hi = lo + 1
	}
	edges = make([]float64, nbins+1)
	width := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	counts = make([]int, nbins)
	for _, x := range xs {
		b := int((x - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return edges, counts
}

// NormalizeCounts converts histogram counts to fractions of the total.
func NormalizeCounts(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}
