package stats

import (
	"math"
	"sort"
	"sync"

	"speedctx/internal/parallel"
)

// BandwidthRule selects how a KDE chooses its smoothing bandwidth.
type BandwidthRule int

const (
	// Silverman is Silverman's rule of thumb,
	// h = 0.9 * min(sigma, IQR/1.34) * n^(-1/5). It is the default and
	// matches the behaviour of scipy/statsmodels defaults closely enough
	// for the cluster-counting use in the paper.
	Silverman BandwidthRule = iota
	// Scott is Scott's rule, h = 1.06 * sigma * n^(-1/5).
	Scott
)

// KDE is a one-dimensional Gaussian kernel density estimate. The paper uses
// KDE (§4.2) to confirm how many clusters are present in the upload- and
// download-speed distributions before fitting a GMM with that many
// components. It is backed either by a raw sample (NewKDE) or by a bin-mass
// Sketch (NewKDESketch); the two share every evaluation path.
type KDE struct {
	xs        []float64 // sorted copy of the sample; nil when sketch-backed
	n         int       // observation count
	bandwidth float64

	// Parallelism bounds the worker count used by Grid and Peaks: 0 (the
	// default) selects GOMAXPROCS, 1 forces the serial path. Every grid
	// point is computed independently and written to its own slot, so the
	// output is bit-identical at every setting.
	Parallelism int
	// FastFit enables the linear-binned evaluation path (DESIGN.md §8)
	// for samples of at least fastFitMinN points: the sample is deposited
	// onto a bin grid once, and every evaluation convolves the bin masses
	// with the kernel instead of the raw sample — O(12h/step) per point
	// regardless of n. The density is approximate (within ~1e-3 of the
	// peak density of the exact estimate at the automatic resolution) but
	// still bit-identical at every Parallelism setting. Set it before the
	// first evaluation; smaller samples always evaluate exactly. A
	// sketch-backed KDE always evaluates over its sketch.
	FastFit bool
	// Bins overrides the fast path's grid resolution; 0 selects an
	// automatic resolution from the bandwidth (autoKDEBins). Ignored
	// unless FastFit engages.
	Bins int

	binOnce sync.Once
	bin     *Sketch // non-nil once the fast path has engaged, or the backing sketch
}

// NewKDE builds a Gaussian KDE over xs using the given bandwidth rule.
// The sample is copied and sorted.
func NewKDE(xs []float64, rule BandwidthRule) *KDE {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	h := bandwidthRule(rule, len(s), func() float64 { return StdDev(s) },
		func() float64 { return quantileSorted(s, 0.75) - quantileSorted(s, 0.25) })
	return &KDE{xs: s, n: len(s), bandwidth: h}
}

// NewKDESketch builds a KDE backed by a bin-mass sketch, for callers (the
// sketch-refit pipeline) that no longer hold the samples at all. The
// bandwidth rule reads the sketch's mass moments and the grid spans its
// occupied bins, so the whole estimate — bandwidth, grid span, densities,
// peaks — is a pure function of the sketch content and therefore identical
// for a merged sketch and the single-pass sketch of the same rows. The
// sketch must not be mutated afterwards (Add/Merge) while the estimate is
// in use.
func NewKDESketch(s *Sketch, rule BandwidthRule) *KDE {
	k := &KDE{n: s.Count(), bandwidth: s.bandwidth(rule)}
	s.views() // materialize before the parallel grid workers fan out
	k.binOnce.Do(func() { k.bin = s })
	return k
}

// bandwidthRule applies a bandwidth rule to n observations of standard
// deviation sigma(); iqr() supplies the interquartile range for Silverman.
// Sample and sketch estimates differ only in where these statistics come
// from.
func bandwidthRule(rule BandwidthRule, n int, sigma, iqr func() float64) float64 {
	if n == 0 {
		return 1
	}
	sd := sigma()
	if sd == 0 {
		sd = 1e-6
	}
	nf := math.Pow(float64(n), -0.2)
	switch rule {
	case Scott:
		return 1.06 * sd * nf
	default: // Silverman
		r := iqr()
		spread := sd
		if r > 0 && r/1.34 < spread {
			spread = r / 1.34
		}
		return 0.9 * spread * nf
	}
}

// Bandwidth reports the bandwidth in use.
func (k *KDE) Bandwidth() float64 { return k.bandwidth }

// Len reports the number of observations.
func (k *KDE) Len() int { return k.n }

// binned lazily builds and returns the linear binning when the fast path
// is engaged, or nil when evaluation should stay exact (FastFit unset,
// sample below the threshold, or a degenerate span/bandwidth). The build is
// serial and happens exactly once, so concurrent evaluators — including the
// parallel grid workers — observe one deterministic grid. A sketch-backed
// KDE returns its sketch.
func (k *KDE) binned() *Sketch {
	k.binOnce.Do(func() {
		n := len(k.xs)
		if !k.FastFit || n < fastFitMinN || k.bandwidth <= 0 {
			return
		}
		span := k.xs[n-1] - k.xs[0]
		if span <= 0 {
			return
		}
		b := k.Bins
		if b <= 0 {
			b = autoKDEBins(span, k.bandwidth)
		}
		if b < 2 {
			b = 2
		}
		s, err := SketchFromSamples(k.xs, k.xs[0], k.xs[n-1], b)
		if err != nil {
			return // degenerate span; stay exact
		}
		s.views() // materialize before the parallel grid workers fan out
		k.bin = s
	})
	return k.bin
}

// At evaluates the density estimate at x. Points further than 6 bandwidths
// from x contribute negligibly and are skipped via a binary search window,
// keeping evaluation O(window) per point on the sorted sample. When the
// fast path is engaged (FastFit), evaluation runs over the bin grid
// instead — see binned.
func (k *KDE) At(x float64) float64 {
	n := k.n
	if n == 0 {
		return 0
	}
	if g := k.binned(); g != nil {
		return g.kdeAt(x, k.bandwidth)
	}
	h := k.bandwidth
	lo := sort.SearchFloat64s(k.xs, x-6*h)
	hi := sort.SearchFloat64s(k.xs, x+6*h)
	sum := 0.0
	for _, xi := range k.xs[lo:hi] {
		u := (x - xi) / h
		sum += math.Exp(-0.5 * u * u)
	}
	return sum * invSqrt2Pi / (float64(n) * h)
}

// kdeGridChunk is the fixed number of grid points per work chunk for the
// parallel grid sweeps. Each point costs two binary searches plus a kernel
// window, so chunks of 32 amortize pool overhead while still splitting the
// default 512-point grid across many workers. The value only affects
// scheduling granularity, never results: every point is written
// independently.
const kdeGridChunk = 32

// Grid evaluates the density on n evenly spaced points covering the
// observed range — the sample's min and max, or a sketch's first and last
// occupied bin centers — padded by 3 bandwidths on each side. It returns
// plot-ready points, as used by the paper's density figures (Figs 4-7,
// 14-18). The points fan out over fixed chunks of grid indices and each
// writes its own slot, so the sweep is bit-identical at every Parallelism.
func (k *KDE) Grid(n int) []Point {
	lo, hi, ok := k.support()
	if !ok || n <= 1 {
		return nil
	}
	lo -= 3 * k.bandwidth
	hi += 3 * k.bandwidth
	pts := make([]Point, n)
	step := (hi - lo) / float64(n-1)
	parallel.ForChunks(k.Parallelism, n, kdeGridChunk, func(_, from, to int) {
		for i := from; i < to; i++ {
			x := lo + float64(i)*step
			pts[i] = Point{X: x, Y: k.At(x)}
		}
	})
	return pts
}

// support returns the smallest and largest observation (bin center, for a
// sketch-backed KDE), or ok=false when there are none.
func (k *KDE) support() (lo, hi float64, ok bool) {
	if k.xs == nil {
		a, b, ok := k.bin.massBounds()
		return k.bin.center(a), k.bin.center(b), ok
	}
	if len(k.xs) == 0 {
		return 0, 0, false
	}
	return k.xs[0], k.xs[len(k.xs)-1], true
}

// Peak is a local maximum of a density curve.
type Peak struct {
	X       float64 // location of the maximum
	Density float64 // density at the maximum
}

// Peaks finds local maxima of the KDE evaluated on a grid of gridN points.
// A point is a peak when its density strictly exceeds both neighbours and is
// at least minRel times the global maximum density. This implements the
// "confirm the presence of clusters" step of the BST methodology: the number
// of peaks is the number of GMM components to fit.
func (k *KDE) Peaks(gridN int, minRel float64) []Peak {
	grid := k.Grid(gridN)
	return PeaksOf(grid, minRel)
}

// PeaksOf finds local maxima in an arbitrary curve. minRel filters peaks
// whose density is below minRel * max density; it suppresses the tiny
// wiggles a KDE produces in sparse tails.
func PeaksOf(grid []Point, minRel float64) []Peak {
	if len(grid) < 3 {
		return nil
	}
	maxD := 0.0
	for _, p := range grid {
		if p.Y > maxD {
			maxD = p.Y
		}
	}
	thresh := minRel * maxD
	var peaks []Peak
	for i := 1; i < len(grid)-1; i++ {
		if grid[i].Y > grid[i-1].Y && grid[i].Y >= grid[i+1].Y && grid[i].Y >= thresh {
			// Skip plateau duplicates: advance past equal values.
			j := i
			for j+1 < len(grid)-1 && grid[j+1].Y == grid[i].Y {
				j++
			}
			if grid[j+1].Y < grid[i].Y {
				peaks = append(peaks, Peak{X: (grid[i].X + grid[j].X) / 2, Density: grid[i].Y})
			}
			i = j
		}
	}
	return peaks
}
