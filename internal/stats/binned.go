package stats

import (
	"math"
)

// This file implements the binned fast paths (DESIGN.md §8) over the
// mergeable Sketch (sketch.go, DESIGN.md §12): a linear binning of the
// sample onto a uniform grid, shared by the binned-KDE evaluator and the
// histogram-EM fit. Binning once costs O(n); every downstream pass then
// runs over the B bin weights instead of the n raw samples, turning the
// O(n·g) KDE grid sweep into O(B·w + n) and the O(n·k) EM iteration into
// O(B·k). Because the single-pass fast fits and the fit-from-sketch API
// route through the same sketch type, a fit over a merged sketch is
// bit-identical to the single-pass fast fit on the same grid.

// fastFitMinN is the sample-size threshold below which the fast paths fall
// back to the exact algorithms even when FastFit is requested: under ~one
// EM chunk of samples the binning overhead buys nothing and the exact fit
// is already fast, so small fits keep their exact semantics.
const fastFitMinN = 4096

// gmmDefaultBins is the histogram resolution of the histogram-EM path.
// 4096 bins keep the quantization at ~1/4000 of the sample span — far below
// the tier separation the BST pipeline clusters on — while one EM iteration
// over the histogram fits in a single fixed reduction chunk.
const gmmDefaultBins = 4096

// DefaultSketchBins is the exported alias of the histogram-EM default
// resolution: pre-declared sketch grids (plan-catalog spans, ingest
// segments) use it so their fits match the single-pass -fast defaults.
const DefaultSketchBins = gmmDefaultBins

// Bounds of the automatic binned-KDE resolution (see autoKDEBins).
const (
	minKDEBins = 512
	maxKDEBins = 1 << 17
)

// autoKDEBins picks the binned-KDE resolution from the kernel bandwidth:
// a bin spacing of at most h/16 keeps the worst-case linear-binning error,
// (step/h)²/8 · φ(0)/h, below ~5·10⁻⁴ of the largest density any sample
// configuration can reach — comfortably inside the 1e-3 gate the accuracy
// tests pin. The count is clamped to [minKDEBins, maxKDEBins]: the floor
// keeps coarse-bandwidth grids smooth, the ceiling bounds memory on
// pathological span/bandwidth ratios (where the error degrades gracefully
// toward the exact path's own tail truncation error).
func autoKDEBins(span, h float64) int {
	b := int(math.Ceil(span/h*16)) + 1
	if b < minKDEBins {
		b = minKDEBins
	}
	if b > maxKDEBins {
		b = maxKDEBins
	}
	return b
}

// useFast reports whether the histogram-EM path applies to a sample of
// size n under this config.
func (c *GMMConfig) useFast(n int) bool { return c.FastFit && n >= fastFitMinN }

// sketchForEM builds the sketch the EM fast path runs over, or reports
// ok=false when the sample cannot support it (degenerate span, or fewer
// bins than components). The grid spans [min(xs), max(xs)], so the
// single-pass fast fit and a fit from the same sketch share a grid key.
func sketchForEM(xs []float64, k int) (s *Sketch, ok bool) {
	if gmmDefaultBins < k {
		return nil, false
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if hi <= lo {
		return nil, false
	}
	s, err := SketchFromSamples(xs, lo, hi, gmmDefaultBins)
	if err != nil {
		return nil, false
	}
	return s, true
}

// kmeansBinned1D is the histogram analogue of KMeans1D: Lloyd's algorithm
// over (bin center, bin mass) pairs. Because the centers are already
// sorted, initialization reads the weighted quantiles straight off the
// cumulative mass. It returns the cluster centers (ascending) and the
// cluster index owning each bin.
func kmeansBinned1D(s *Sketch, k, maxIter int) (centers []float64, assign []int) {
	w, binCenters := s.views()
	nb := len(w)
	total := s.Weight()
	centers = make([]float64, k)
	// Weighted-quantile seeding at (i+0.5)/k, mirroring KMeans1D's
	// evenly spaced sample quantiles.
	ci, cum := 0, 0.0
	for j := 0; j < nb && ci < k; j++ {
		cum += w[j]
		for ci < k && cum >= (float64(ci)+0.5)/float64(k)*total {
			centers[ci] = binCenters[j]
			ci++
		}
	}
	for ; ci < k; ci++ {
		centers[ci] = binCenters[nb-1]
	}

	assign = make([]int, nb)
	sums := make([]float64, k)
	masses := make([]float64, k)
	if maxIter <= 0 {
		maxIter = 100
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for j := 0; j < nb; j++ {
			x := binCenters[j]
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				d := math.Abs(x - ctr)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[j] != best {
				assign[j] = best
				changed = true
			}
		}
		for c := range sums {
			sums[c], masses[c] = 0, 0
		}
		for j, wj := range w {
			sums[assign[j]] += wj * binCenters[j]
			masses[assign[j]] += wj
		}
		for c := range centers {
			if masses[c] > 0 {
				centers[c] = sums[c] / masses[c]
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	// Centers move monotonically but stay ordered for 1-D Lloyd seeded in
	// order; sort defensively to uphold the ascending contract.
	for c := 1; c < k; c++ {
		if centers[c] < centers[c-1] {
			sortCentersAndRemap(centers, assign)
			break
		}
	}
	return centers, assign
}

// sortCentersAndRemap restores ascending center order, remapping bin
// assignments accordingly.
func sortCentersAndRemap(centers []float64, assign []int) {
	k := len(centers)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < k; i++ { // insertion sort; k is tiny
		for j := i; j > 0 && centers[order[j]] < centers[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	remap := make([]int, k)
	sorted := make([]float64, k)
	for newIdx, oldIdx := range order {
		remap[oldIdx] = newIdx
		sorted[newIdx] = centers[oldIdx]
	}
	copy(centers, sorted)
	for j := range assign {
		assign[j] = remap[assign[j]]
	}
}

// fitGMMSketched is the histogram-EM fit over a sketch — the shared engine
// behind both FitGMM's fast path and FitGMMSketch: weighted k-means over
// the bins for initialization, then histogram-EM over (bin center, bin
// mass) pairs. The caller has validated k against the sketch count.
func fitGMMSketched(s *Sketch, k int, cfg GMMConfig) (*GMM, error) {
	centers, assign := kmeansBinned1D(s, k, 50)
	w, binCenters := s.views()
	comps := make([]Component, k)
	masses := make([]float64, k)
	total := 0.0
	for j, wj := range w {
		c := assign[j]
		d := binCenters[j] - centers[c]
		comps[c].Variance += wj * d * d
		masses[c] += wj
		total += wj
	}
	for c := range comps {
		comps[c].Mean = centers[c]
		if masses[c] > 0 {
			comps[c].Variance /= masses[c]
			comps[c].Weight = masses[c] / total
		} else {
			comps[c].Weight = 1e-6
		}
		if comps[c].Variance < cfg.MinVariance {
			comps[c].Variance = cfg.MinVariance
		}
	}
	return runEM(binCenters, w, s.Count(), comps, cfg)
}

// fitGMMInitSketched is the histogram-EM fit over a sketch from explicit
// initial means — the shared engine behind FitGMMInit's fast path and
// FitGMMInitSketch. The degenerate-spacing fallback derives its scale from
// the sketch's own mass moments, so the fit is a pure function of (sketch,
// initMeans, config).
func fitGMMInitSketched(s *Sketch, initMeans []float64, cfg GMMConfig) (*GMM, error) {
	comps := initComponents(initMeans, func() float64 { return math.Max(s.StdDev(), 1) }, cfg)
	w, binCenters := s.views()
	return runEM(binCenters, w, s.Count(), comps, cfg)
}
