package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"speedctx/internal/fitcache"
	"speedctx/internal/parallel"
)

// Component is one Gaussian component of a 1-D mixture: a weight, a mean and
// a variance. Components are kept sorted by mean so that component index i
// corresponds to the i-th slowest speed tier.
type Component struct {
	Weight   float64
	Mean     float64
	Variance float64
}

// StdDev returns the component's standard deviation.
func (c Component) StdDev() float64 { return math.Sqrt(c.Variance) }

func (c Component) String() string {
	return fmt.Sprintf("N(mu=%.2f, sigma=%.2f, w=%.3f)", c.Mean, c.StdDev(), c.Weight)
}

// GMM is a one-dimensional Gaussian mixture model fit by
// expectation-maximization. It is the clustering engine of the BST
// methodology (§4.2): the paper chooses GMM over k-means because it models
// each cluster's variance and weight, not only its mean.
type GMM struct {
	Components []Component
	// LogLikelihood is the total data log-likelihood at convergence.
	LogLikelihood float64
	// Iterations is the number of EM iterations performed.
	Iterations int
	// Converged reports whether the log-likelihood improvement fell
	// below the tolerance before the iteration cap.
	Converged bool
	n         int // sample size used for the fit (for BIC/AIC)
}

// GMMConfig tunes the EM fit.
type GMMConfig struct {
	// MaxIter caps EM iterations. Default 200.
	MaxIter int
	// Tol is the absolute log-likelihood improvement below which the fit
	// is considered converged. Default 1e-6.
	Tol float64
	// MinVariance floors component variances to keep the model from
	// collapsing onto a single point. Default 1e-4.
	MinVariance float64
	// Parallelism bounds the worker count for the EM sweeps: 0 (the
	// default) selects GOMAXPROCS, 1 forces the serial path. The E-step
	// accumulates per-chunk sufficient statistics over fixed sample
	// chunks and merges them in chunk order, so the fit is bit-identical
	// at every setting (see internal/parallel).
	Parallelism int
	// FastFit enables the histogram-EM fast path for samples of at least
	// fastFitMinN points: the sample is linearly binned once (O(n)) and
	// the E/M sweeps run over (bin center, bin mass) pairs, cutting the
	// per-iteration cost from O(n·k) to O(B·k). The fit is approximate —
	// parameters land within the binning quantization of the exact fit
	// (DESIGN.md §8) — but remains bit-identical across parallelism
	// levels. The histogram has gmmDefaultBins bins. Smaller samples
	// always take the exact path.
	FastFit bool
	// Cache, when non-nil, memoizes whole fits content-addressed by the
	// sample bytes and the fit configuration (Parallelism excluded —
	// results are bit-identical at every setting). Hits return a clone
	// of the cached model, byte-identical to what a refit would produce.
	Cache *fitcache.Cache
}

func (c *GMMConfig) defaults() {
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.MinVariance <= 0 {
		c.MinVariance = 1e-4
	}
}

// ErrTooFewPoints is returned when the sample is smaller than the requested
// number of components.
var ErrTooFewPoints = errors.New("stats: fewer points than mixture components")

const invSqrt2Pi = 0.3989422804014327

// normalPDF evaluates the Gaussian density with the given mean and variance.
func normalPDF(x, mean, variance float64) float64 {
	d := x - mean
	return invSqrt2Pi / math.Sqrt(variance) * math.Exp(-0.5*d*d/variance)
}

// logNormalPDF evaluates the log of the Gaussian density.
func logNormalPDF(x, mean, variance float64) float64 {
	d := x - mean
	return -0.5*math.Log(2*math.Pi*variance) - 0.5*d*d/variance
}

// clone returns a deep copy of the fit, so cached models can be handed out
// without aliasing the cache's own copy.
func (m *GMM) clone() *GMM {
	c := *m
	c.Components = append([]Component(nil), m.Components...)
	return &c
}

// gmmCacheKey builds the content-addressed cache key of one exact-path fit:
// a version/kind tag, the effective configuration, and every sample byte, in
// order. Parallelism is deliberately excluded — the fixed-chunk reductions
// make the fit bit-identical at every setting, so a fit computed at one
// worker count may serve requests at any other. Sample order is included
// (via Float64s) because those same reductions make the result depend,
// bitwise, on the order of the input.
func gmmCacheKey(kind string, xs, initMeans []float64, k int, cfg GMMConfig) fitcache.Key {
	h := fitcache.NewHasher()
	h.String("stats.gmm/v1").String(kind)
	h.Int(k).Float64s(initMeans)
	h.Int(cfg.MaxIter).Float64(cfg.Tol).Float64(cfg.MinVariance)
	h.Float64s(xs)
	return h.Sum()
}

// gmmSketchCacheKey is the cache key of a histogram-EM fit: the sketch's
// grid key, sample count and per-bin masses stand in for the raw sample.
// Hashing the masses costs O(bins) instead of O(n), and — because the
// masses are merge-order- and shard-independent — a fit cached by one
// single-pass fast fit is served verbatim to a fit from the equivalent
// merged sketch, and to any sample permutation that bins identically.
func gmmSketchCacheKey(kind string, s *Sketch, initMeans []float64, k int, cfg GMMConfig) fitcache.Key {
	h := fitcache.NewHasher()
	h.String("stats.gmm/sketch/v1").String(kind)
	h.Int(k).Float64s(initMeans)
	h.Int(cfg.MaxIter).Float64(cfg.Tol).Float64(cfg.MinVariance)
	h.Float64(s.lo).Float64(s.hi).Int(len(s.mass)).Uint64(s.count)
	h.Uint64s(s.mass)
	return h.Sum()
}

// cachedFit wraps a fit computation with the config's cache, when present.
func cachedFit(cfg GMMConfig, key func() fitcache.Key, fit func() (*GMM, error)) (*GMM, error) {
	if cfg.Cache == nil {
		return fit()
	}
	k := key()
	if v, ok := cfg.Cache.Get(k); ok {
		return v.(*GMM).clone(), nil
	}
	m, err := fit()
	if err != nil {
		return nil, err
	}
	cfg.Cache.Put(k, m.clone())
	return m, nil
}

// FitGMM fits a k-component 1-D Gaussian mixture to xs with EM, initialized
// by deterministic 1-D k-means. Components in the result are sorted by mean.
// When the fast path engages (FastFit and n >= fastFitMinN), the sample is
// binned into a Sketch over [min(xs), max(xs)] and the fit runs through the
// identical code path as FitGMMSketch — so a single-pass fast fit and a fit
// from the equivalent (possibly merged) sketch are the same computation.
func FitGMM(xs []float64, k int, cfg GMMConfig) (*GMM, error) {
	cfg.defaults()
	n := len(xs)
	if k <= 0 {
		return nil, errors.New("stats: non-positive component count")
	}
	if n < k {
		return nil, ErrTooFewPoints
	}
	if cfg.useFast(n) {
		if s, ok := sketchForEM(xs, k); ok {
			return fitGMMSketchCached("FitGMM", s, nil, k, cfg)
		}
	}
	return cachedFit(cfg,
		func() fitcache.Key { return gmmCacheKey("FitGMM", xs, nil, k, cfg) },
		func() (*GMM, error) { return fitGMMExact(xs, k, cfg) })
}

// FitGMMSketch fits a k-component mixture from a bin-mass sketch: weighted
// k-means over the bins for initialization, then histogram-EM over
// (bin center, bin mass) pairs — the same engine as FitGMM's fast path, so
// the result over a merged sketch is bit-identical to the single-pass fast
// fit of the concatenated sample on the same grid.
func FitGMMSketch(s *Sketch, k int, cfg GMMConfig) (*GMM, error) {
	cfg.defaults()
	if k <= 0 {
		return nil, errors.New("stats: non-positive component count")
	}
	if s.Count() < k || s.Bins() < k {
		return nil, ErrTooFewPoints
	}
	return fitGMMSketchCached("FitGMM", s, nil, k, cfg)
}

// FitGMMInitSketch is FitGMMInit from a bin-mass sketch: EM initialized at
// the given means, run over the sketch's (bin center, bin mass) pairs.
func FitGMMInitSketch(s *Sketch, initMeans []float64, cfg GMMConfig) (*GMM, error) {
	cfg.defaults()
	k := len(initMeans)
	if k == 0 {
		return nil, errors.New("stats: empty init means")
	}
	if s.Count() < k {
		return nil, ErrTooFewPoints
	}
	return fitGMMSketchCached("FitGMMInit", s, initMeans, k, cfg)
}

// fitGMMSketchCached dispatches a sketch fit through the content cache.
// A nil initMeans selects the k-means-seeded fit, otherwise the
// explicit-means fit.
func fitGMMSketchCached(kind string, s *Sketch, initMeans []float64, k int, cfg GMMConfig) (*GMM, error) {
	return cachedFit(cfg,
		func() fitcache.Key { return gmmSketchCacheKey(kind, s, initMeans, k, cfg) },
		func() (*GMM, error) {
			if initMeans != nil {
				return fitGMMInitSketched(s, initMeans, cfg)
			}
			return fitGMMSketched(s, k, cfg)
		})
}

// fitGMMExact is FitGMM past validation, caching and the fast-path branch.
func fitGMMExact(xs []float64, k int, cfg GMMConfig) (*GMM, error) {
	n := len(xs)
	// Initialization from k-means: means are the centers, variances the
	// within-cluster variances, weights the cluster fractions.
	centers, assign := KMeans1D(xs, k, 50)
	comps := make([]Component, k)
	counts := make([]int, k)
	for i, x := range xs {
		c := assign[i]
		counts[c]++
		d := x - centers[c]
		comps[c].Variance += d * d
	}
	for c := range comps {
		comps[c].Mean = centers[c]
		if counts[c] > 0 {
			comps[c].Variance /= float64(counts[c])
			comps[c].Weight = float64(counts[c]) / float64(n)
		} else {
			comps[c].Weight = 1e-6
		}
		if comps[c].Variance < cfg.MinVariance {
			comps[c].Variance = cfg.MinVariance
		}
	}
	return runEM(xs, nil, n, comps, cfg)
}

// FitGMMInit fits a Gaussian mixture initialized at the given means —
// used by the BST pipeline, which knows where clusters should sit (the
// ISP's offered speeds and the KDE peak locations). Initial weights are
// uniform; initial standard deviations are a quarter of the smallest
// spacing between adjacent init means (floored by MinVariance).
func FitGMMInit(xs []float64, initMeans []float64, cfg GMMConfig) (*GMM, error) {
	cfg.defaults()
	k := len(initMeans)
	if k == 0 {
		return nil, errors.New("stats: empty init means")
	}
	if len(xs) < k {
		return nil, ErrTooFewPoints
	}
	if cfg.useFast(len(xs)) {
		if s, ok := sketchForEM(xs, k); ok {
			return fitGMMSketchCached("FitGMMInit", s, initMeans, k, cfg)
		}
	}
	return cachedFit(cfg,
		func() fitcache.Key { return gmmCacheKey("FitGMMInit", xs, initMeans, k, cfg) },
		func() (*GMM, error) {
			comps := initComponents(initMeans, func() float64 { return math.Max(StdDev(xs), 1) }, cfg)
			return runEM(xs, nil, len(xs), comps, cfg)
		})
}

// initComponents builds the EM starting components for an explicit-means
// fit: uniform weights, means sorted ascending, and a shared standard
// deviation of a quarter of the smallest spacing between adjacent means.
// fallbackSD supplies the scale when the spacing is degenerate (a single
// mean, or duplicates); it is a closure so the exact path can read the raw
// sample and the sketch path its mass moments, each lazily.
func initComponents(initMeans []float64, fallbackSD func() float64, cfg GMMConfig) []Component {
	k := len(initMeans)
	means := make([]float64, k)
	copy(means, initMeans)
	sort.Float64s(means)
	minGap := math.Inf(1)
	for i := 1; i < k; i++ {
		if g := means[i] - means[i-1]; g < minGap {
			minGap = g
		}
	}
	if math.IsInf(minGap, 1) || minGap <= 0 {
		minGap = fallbackSD()
	}
	sigma := minGap / 4
	comps := make([]Component, k)
	for c := range comps {
		comps[c] = Component{
			Weight:   1 / float64(k),
			Mean:     means[c],
			Variance: math.Max(sigma*sigma, cfg.MinVariance),
		}
	}
	return comps
}

// emChunk is the fixed number of samples per EM work chunk. It is a
// constant (never derived from the worker count) so that the per-chunk
// partial-sum layout — and therefore the floating-point reduction order —
// is identical at every Parallelism setting.
const emChunk = 4096

// runEM iterates EM from the given initial components to convergence over
// the observations xs. ws carries per-observation masses for the histogram
// fast path ((bin center, bin mass) pairs); a nil ws means unit weights —
// the exact path — and follows the identical code with w ≡ 1, whose
// multiplications are IEEE-exact, so the refactor cannot perturb exact-path
// results. n is the underlying sample count (≥ len(xs) on the binned path)
// and feeds BIC/AIC.
//
// Both EM sweeps are fanned out over fixed chunks of the observations. Each
// chunk writes its responsibilities into a disjoint segment of one shared
// buffer and accumulates its sufficient statistics (partial log-likelihood,
// per component Σw·r and Σw·r·x, then Σw·r·(x−μ)²) into a per-chunk slot;
// the slots are merged in chunk order afterwards. All buffers are allocated
// once up front and reused across iterations, so a converged fit performs
// no per-iteration allocation.
func runEM(xs, ws []float64, n int, comps []Component, cfg GMMConfig) (*GMM, error) {
	cfg.defaults()
	nb := len(xs) // observation count: samples, or bins on the fast path
	k := len(comps)
	m := &GMM{Components: comps, n: n}

	resp := make([]float64, nb*k) // responsibilities, row-major [i*k+c]
	chunks := parallel.ChunkCount(nb, emChunk)
	partLL := make([]float64, chunks)   // per-chunk log-likelihood
	partNk := make([]float64, chunks*k) // per-chunk Σ resp, chunk-major
	partSx := make([]float64, chunks*k) // per-chunk Σ resp·x
	partSv := make([]float64, chunks*k) // per-chunk Σ resp·(x-mu)²
	logW := make([]float64, k)          // log component weight
	logNorm := make([]float64, k)       // -0.5·log(2π·var)
	halfInvVar := make([]float64, k)    // 0.5/var
	nk := make([]float64, k)            // merged Σ resp
	mu := make([]float64, k)            // merged Σ resp·x, then means

	prevLL := math.Inf(-1)
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		// Per-component constants of this iteration's densities, hoisted
		// out of the per-sample loop.
		for c, comp := range m.Components {
			logW[c] = math.Log(comp.Weight)
			logNorm[c] = -0.5 * math.Log(2*math.Pi*comp.Variance)
			halfInvVar[c] = 0.5 / comp.Variance
		}

		// E-step: responsibilities via log-sum-exp, plus the zeroth and
		// first sufficient statistics, per fixed chunk. Zero-mass
		// observations (empty histogram bins) are skipped outright.
		parallel.ForChunks(cfg.Parallelism, nb, emChunk, func(ch, lo, hi int) {
			ll := 0.0
			pnk := partNk[ch*k : ch*k+k]
			psx := partSx[ch*k : ch*k+k]
			for c := range pnk {
				pnk[c], psx[c] = 0, 0
			}
			for i := lo; i < hi; i++ {
				w := 1.0
				if ws != nil {
					if w = ws[i]; w == 0 {
						continue
					}
				}
				x := xs[i]
				row := resp[i*k : i*k+k]
				maxLog := math.Inf(-1)
				for c := range row {
					d := x - m.Components[c].Mean
					lp := logW[c] + logNorm[c] - d*d*halfInvVar[c]
					row[c] = lp
					if lp > maxLog {
						maxLog = lp
					}
				}
				sum := 0.0
				for c := range row {
					row[c] = math.Exp(row[c] - maxLog)
					sum += row[c]
				}
				for c := range row {
					r := row[c] / sum
					row[c] = r
					pnk[c] += w * r
					psx[c] += w * r * x
				}
				ll += w * (maxLog + math.Log(sum))
			}
			partLL[ch] = ll
		})

		// Merge in chunk order — the order is fixed, so the totals are
		// independent of which worker ran which chunk.
		ll := 0.0
		for c := range nk {
			nk[c], mu[c] = 0, 0
		}
		for ch := 0; ch < chunks; ch++ {
			ll += partLL[ch]
			for c := 0; c < k; c++ {
				nk[c] += partNk[ch*k+c]
				mu[c] += partSx[ch*k+c]
			}
		}
		m.LogLikelihood = ll
		m.Iterations = iter

		if ll-prevLL < cfg.Tol && iter > 1 {
			m.Converged = true
			break
		}
		prevLL = ll

		// M-step means; dead components keep their parameters.
		for c := range mu {
			if nk[c] >= 1e-12 {
				mu[c] /= nk[c]
			} else {
				mu[c] = m.Components[c].Mean
			}
		}

		// Second sweep: variances around the new means. Kept as a
		// separate pass (rather than folding Σr·x² into the first) to
		// preserve the numerically stable centered form.
		parallel.ForChunks(cfg.Parallelism, nb, emChunk, func(ch, lo, hi int) {
			psv := partSv[ch*k : ch*k+k]
			for c := range psv {
				psv[c] = 0
			}
			for i := lo; i < hi; i++ {
				w := 1.0
				if ws != nil {
					if w = ws[i]; w == 0 {
						continue
					}
				}
				x := xs[i]
				row := resp[i*k : i*k+k]
				for c := range row {
					d := x - mu[c]
					psv[c] += w * row[c] * d * d
				}
			}
		})
		for c := range m.Components {
			if nk[c] < 1e-12 {
				// Dead component: keep parameters, zero weight.
				m.Components[c].Weight = 1e-12
				continue
			}
			sv := 0.0
			for ch := 0; ch < chunks; ch++ {
				sv += partSv[ch*k+c]
			}
			va := sv / nk[c]
			if va < cfg.MinVariance {
				va = cfg.MinVariance
			}
			m.Components[c] = Component{Weight: nk[c] / float64(n), Mean: mu[c], Variance: va}
		}
	}

	m.sortByMean()
	return m, nil
}

// sortByMean keeps components in ascending-mean order so that component
// index equals tier order.
func (m *GMM) sortByMean() {
	sort.Slice(m.Components, func(a, b int) bool {
		return m.Components[a].Mean < m.Components[b].Mean
	})
}

// K returns the number of components.
func (m *GMM) K() int { return len(m.Components) }

// Means returns the component means in ascending order.
func (m *GMM) Means() []float64 {
	out := make([]float64, len(m.Components))
	for i, c := range m.Components {
		out[i] = c.Mean
	}
	return out
}

// PDF evaluates the mixture density at x.
func (m *GMM) PDF(x float64) float64 {
	s := 0.0
	for _, c := range m.Components {
		s += c.Weight * normalPDF(x, c.Mean, c.Variance)
	}
	return s
}

// Responsibilities returns the posterior probability of each component for
// observation x. The slice sums to 1 (unless the density underflows
// everywhere, in which case the nearest-mean component gets probability 1).
func (m *GMM) Responsibilities(x float64) []float64 {
	out := make([]float64, len(m.Components))
	m.RespInto(x, out)
	return out
}

// RespInto writes the posterior responsibilities of x into out, which must
// have length K(). It is Responsibilities without the allocation, for bulk
// classification loops (the BST assignment pass calls it once per sample).
func (m *GMM) RespInto(x float64, out []float64) {
	maxLog := math.Inf(-1)
	for c, comp := range m.Components {
		lp := math.Log(comp.Weight) + logNormalPDF(x, comp.Mean, comp.Variance)
		out[c] = lp
		if lp > maxLog {
			maxLog = lp
		}
	}
	if math.IsInf(maxLog, -1) {
		best, bestD := 0, math.Inf(1)
		for c, comp := range m.Components {
			d := math.Abs(x - comp.Mean)
			if d < bestD {
				best, bestD = c, d
			}
		}
		for c := range out {
			out[c] = 0
		}
		out[best] = 1
		return
	}
	sum := 0.0
	for c := range out {
		out[c] = math.Exp(out[c] - maxLog)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// Predict returns the index of the most probable component for x along with
// its posterior probability.
func (m *GMM) Predict(x float64) (component int, prob float64) {
	return m.PredictScratch(x, make([]float64, len(m.Components)))
}

// PredictScratch is Predict with a caller-provided scratch slice of length
// K(), so bulk classification loops can classify millions of samples
// without a per-call allocation.
func (m *GMM) PredictScratch(x float64, scratch []float64) (component int, prob float64) {
	m.RespInto(x, scratch)
	best, bestP := 0, -1.0
	for c, p := range scratch {
		if p > bestP {
			best, bestP = c, p
		}
	}
	return best, bestP
}

// numParams is the free-parameter count of a k-component 1-D GMM:
// k means + k variances + (k-1) independent weights.
func (m *GMM) numParams() int { return 3*len(m.Components) - 1 }

// BIC returns the Bayesian information criterion of the fit (lower is
// better). Used by the model-selection fallback when KDE peak counting is
// ambiguous.
func (m *GMM) BIC() float64 {
	return float64(m.numParams())*math.Log(float64(m.n)) - 2*m.LogLikelihood
}

// AIC returns the Akaike information criterion of the fit (lower is better).
func (m *GMM) AIC() float64 {
	return 2*float64(m.numParams()) - 2*m.LogLikelihood
}

// SelectGMM fits mixtures for every k in [kMin, kMax] and returns the one
// with the lowest BIC. It is the fallback the BST pipeline uses when the KDE
// peak count is implausible (e.g. sparse data producing a single smeared
// bump).
func SelectGMM(xs []float64, kMin, kMax int, cfg GMMConfig) (*GMM, error) {
	if kMin < 1 {
		kMin = 1
	}
	if kMax < kMin {
		kMax = kMin
	}
	var best *GMM
	for k := kMin; k <= kMax; k++ {
		m, err := FitGMM(xs, k, cfg)
		if err != nil {
			if errors.Is(err, ErrTooFewPoints) {
				break
			}
			return nil, err
		}
		if best == nil || m.BIC() < best.BIC() {
			best = m
		}
	}
	if best == nil {
		return nil, ErrTooFewPoints
	}
	return best, nil
}
