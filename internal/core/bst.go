// Package core implements the paper's primary contribution: the Broadband
// Subscription Tier (BST) methodology (§4.2), a two-stage hierarchical
// unsupervised clustering pipeline that maps each <download, upload>
// speed-test tuple to an ISP subscription plan.
//
// Stage 1 clusters the (consistent, small-valued) upload speeds: a Gaussian
// KDE confirms how many clusters the distribution carries, a GMM fit with EM
// assigns every measurement to an upload cluster, and clusters are matched
// to the ISP's offered upload rates. Stage 2 re-applies KDE+GMM to the
// download speeds within each upload cluster and maps download clusters to
// the member plans of that upload tier.
//
// The package never looks at ground-truth tiers; accuracy scoring against
// labelled data (the MBA panel) lives in Evaluate.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"speedctx/internal/fitcache"
	"speedctx/internal/parallel"
	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// Sample is one speed test's measured throughput pair in Mbps.
type Sample struct {
	Download float64
	Upload   float64
}

// The BST recipe's fixed parameters (§4.2): the KDE that confirms each
// stage's cluster count, and the rules that seed, cap and map its clusters.
const (
	// KDEGridPoints is the density-evaluation grid size for peak
	// counting.
	KDEGridPoints = 512
	// MinRelPeak filters KDE peaks below this fraction of the maximum
	// density.
	MinRelPeak = 0.02
	// kdeBandwidth is the KDE bandwidth rule.
	kdeBandwidth = stats.Silverman
	// maxDownloadClusters caps stage-2 component counts; the paper uses
	// up to 10 clusters per upload tier.
	maxDownloadClusters = 10
	// extraUploadClusters bounds how many clusters beyond the offered
	// upload rates stage 1 may model (off-catalog subscribers, e.g. the
	// ~1 Mbps M-Lab cluster).
	extraUploadClusters = 2
	// uploadMatchTol is the relative tolerance for matching a detected
	// upload cluster mean to an offered upload speed.
	uploadMatchTol = 0.45
	// DownloadHeadroom is the multiplicative overprovisioning allowance
	// when mapping download clusters to advertised plan speeds: a
	// cluster belongs to the slowest plan whose advertised download
	// times this headroom covers the cluster mean.
	DownloadHeadroom = 1.35
)

// Config holds the BST pipeline's execution knobs: the worker count, the
// binned fast paths and the fit cache. The method's parameters are the
// constants above; the zero value runs the exact fits at GOMAXPROCS
// workers without a cache.
type Config struct {
	// Parallelism bounds the worker count used across the pipeline —
	// KDE grid evaluation, the GMM EM sweeps, the per-sample assignment
	// pass, and the stage-2 per-tier fan-out. 0 (the default) selects
	// GOMAXPROCS; 1 forces the serial path. Every stage reduces its
	// partial results in fixed chunk order, so the Result is identical
	// at every setting (see internal/parallel).
	Parallelism int
	// FastFit enables the binned fast paths (DESIGN.md §8) in every KDE
	// and GMM fit the pipeline runs: large slices are linearly binned
	// once and the density/EM sweeps run over the bin weights. Fits are
	// approximate within the binning quantization but remain
	// bit-identical across parallelism levels; slices below the
	// threshold keep the exact algorithms.
	FastFit bool
	// FitCache, when non-nil, memoizes the pipeline's GMM fits
	// content-addressed by (sample bytes, fit config), so repeated runs
	// over identical city/tier slices — e.g. the experiments suite
	// regenerating tables and figures — never refit. Safe to share
	// across goroutines and across parallelism settings: cache hits are
	// byte-identical to the fit they replaced.
	FitCache *fitcache.Cache
}

// UploadStage reports stage 1: the upload-speed clustering and its match to
// the catalog's upload tiers.
type UploadStage struct {
	// Peaks are the KDE local maxima that set the component count.
	Peaks []stats.Peak
	// Model is the fitted upload GMM (components ascending by mean).
	Model *stats.GMM
	// ClusterTier maps each GMM component to an index into
	// Catalog.UploadTiers(), or -1 for an off-catalog cluster.
	ClusterTier []int
}

// DownloadStage reports stage 2 for one upload tier.
type DownloadStage struct {
	// TierIndex indexes Catalog.UploadTiers().
	TierIndex int
	// SampleCount is how many stage-1 samples landed in this tier.
	SampleCount int
	// Peaks are the download KDE maxima.
	Peaks []stats.Peak
	// Model is the fitted download GMM; nil when the tier received too
	// few samples to cluster.
	Model *stats.GMM
	// ComponentPlan maps each GMM component to a 1-based plan tier.
	ComponentPlan []int
}

// Assignment is the BST verdict for one input sample.
type Assignment struct {
	// UploadTier indexes Catalog.UploadTiers(); -1 when the sample fell
	// into an off-catalog upload cluster.
	UploadTier int
	// Tier is the assigned 1-based plan tier; 0 when unassigned.
	Tier int
	// Confidence is the posterior probability of the assignment
	// (stage-1 responsibility times stage-2 responsibility).
	Confidence float64
}

// Result is the full BST output for one dataset.
type Result struct {
	Catalog     *plans.Catalog
	Upload      UploadStage
	Downloads   []DownloadStage
	Assignments []Assignment
}

// ErrTooFewSamples is returned when the dataset cannot support stage 1.
var ErrTooFewSamples = errors.New("core: too few samples for BST")

// resolve is the EM fits' configuration: the pipeline's worker count,
// fast-path and cache knobs over the stats package's EM defaults, so one
// set of knobs drives every KDE and EM fit of a run.
func (c *Config) resolve() stats.GMMConfig {
	return stats.GMMConfig{Parallelism: c.Parallelism, FastFit: c.FastFit, Cache: c.FitCache}
}

// stageInput is what one BST stage clusters: a raw sample (xs) or, for the
// sketch refit, a bin-mass sketch (sk). Both stages run the same code over
// either.
type stageInput struct {
	xs []float64
	sk *stats.Sketch
}

// count reports how many observations the input holds.
func (in stageInput) count() int {
	if in.sk != nil {
		return in.sk.Count()
	}
	return len(in.xs)
}

// peaks returns the KDE maxima of the input, confirming its cluster count.
func (in stageInput) peaks(cfg *Config) []stats.Peak {
	var kde *stats.KDE
	if in.sk != nil {
		kde = stats.NewKDESketch(in.sk, kdeBandwidth)
	} else {
		kde = stats.NewKDE(in.xs, kdeBandwidth)
		kde.FastFit = cfg.FastFit
	}
	kde.Parallelism = cfg.Parallelism
	return kde.Peaks(KDEGridPoints, MinRelPeak)
}

// fitGMM fits a mixture seeded at initMeans, keeping at most one component
// per observation.
func (in stageInput) fitGMM(initMeans []float64, cfg *Config) (*stats.GMM, error) {
	if n := in.count(); len(initMeans) > n {
		initMeans = initMeans[:n]
	}
	if in.sk != nil {
		return stats.FitGMMInitSketch(in.sk, initMeans, cfg.resolve())
	}
	return stats.FitGMMInit(in.xs, initMeans, cfg.resolve())
}

// fitStages is the two-stage pipeline behind Fit and FitFromSketches;
// tiers is cat.UploadTiers(), which both callers also need. It fits stage 1
// over the uploads, asks tierInputs for each upload tier's stage-2 input
// (Fit buckets its samples by the fitted upload model; a sketch refit
// already holds them), and fits stage 2 for every tier.
// Tiers are independent, so the per-tier fits fan out across the pool;
// each writes only its own Downloads slot, then calls tierDone, when
// non-nil, for its tier on the same worker.
func fitStages(up stageInput, cat *plans.Catalog, tiers []plans.UploadTier, cfg Config,
	tierInputs func(*Result) []stageInput,
	tierDone func(res *Result, ti int)) (*Result, error) {
	if n := up.count(); n < 2*len(tiers) {
		return nil, fmt.Errorf("%w: %d samples for %d upload tiers", ErrTooFewSamples, n, len(tiers))
	}
	res := &Result{Catalog: cat}
	var err error
	if res.Upload, err = fitUpload(up, tiers, &cfg); err != nil {
		return nil, err
	}
	downs := tierInputs(res)
	res.Downloads = make([]DownloadStage, len(tiers))
	parallel.For(cfg.Parallelism, len(tiers), func(ti int) {
		res.Downloads[ti] = fitDownload(ti, tiers[ti], downs[ti], &cfg)
		if tierDone != nil {
			tierDone(res, ti)
		}
	})
	return res, nil
}

// fitUpload runs stage 1. Components are seeded at the offered upload rates
// (the methodology checks that the measured clusters mirror the catalog),
// plus KDE peaks far from every offered rate — off-catalog clusters such as
// the ~1 Mbps M-Lab group — bounded by extraUploadClusters. Each fitted
// component is then matched to an offered rate.
func fitUpload(in stageInput, tiers []plans.UploadTier, cfg *Config) (UploadStage, error) {
	st := UploadStage{Peaks: in.peaks(cfg)}
	initUp := make([]float64, 0, len(tiers)+extraUploadClusters)
	for _, t := range tiers {
		initUp = append(initUp, float64(t.Upload))
	}
	extra := 0
	for _, pk := range st.Peaks {
		if extra >= extraUploadClusters {
			break
		}
		farFromAll := true
		for _, t := range tiers {
			offered := float64(t.Upload)
			if math.Abs(pk.X-offered)/offered <= uploadMatchTol {
				farFromAll = false
				break
			}
		}
		if farFromAll && pk.X > 0 {
			initUp = append(initUp, pk.X)
			extra++
		}
	}
	um, err := in.fitGMM(initUp, cfg)
	if err != nil {
		return st, fmt.Errorf("core: stage-1 GMM: %w", err)
	}
	st.Model = um
	st.ClusterTier = matchUploadClusters(um, tiers)
	return st, nil
}

// fitDownload runs stage 2 for one upload tier: KDE peaks, initial means,
// the download GMM and its cluster-to-plan map. A tier with too few
// samples to cluster gets no model; its samples take the headroom rule.
func fitDownload(ti int, tier plans.UploadTier, in stageInput, cfg *Config) DownloadStage {
	n := in.count()
	ds := DownloadStage{TierIndex: ti, SampleCount: n}
	if n < 2*len(tier.Plans) || n < 4 {
		return ds
	}
	ds.Peaks = in.peaks(cfg)
	if dm, err := in.fitGMM(downloadInitMeans(ds.Peaks, tier), cfg); err == nil {
		ds.Model = dm
		ds.ComponentPlan = mapDownloadClusters(dm, tier)
	}
	return ds
}

// assign is stage 1's per-sample step: the upload posterior picks the
// cluster, and so the upload tier and the stage-1 confidence. scratch must
// hold at least Model.K() values.
func (u *UploadStage) assign(upload float64, scratch []float64) Assignment {
	comp, p := u.Model.PredictScratch(upload, scratch[:u.Model.K()])
	return Assignment{UploadTier: u.ClusterTier[comp], Confidence: p}
}

// assign is stage 2's per-sample step for a sample of this tier: the
// download model picks the plan and scales the confidence by its
// posterior, or, when the tier was too sparse to model, the headroom rule
// picks the plan from the measurement. scratch must hold at least
// Model.K() values when there is a model.
func (ds *DownloadStage) assign(a *Assignment, download float64, tier plans.UploadTier, scratch []float64) {
	if ds.Model == nil {
		a.Tier = planByCeiling(download, tier)
		return
	}
	comp, p := ds.Model.PredictScratch(download, scratch[:ds.Model.K()])
	a.Tier = ds.ComponentPlan[comp]
	a.Confidence *= p
}

// Fit runs the two-stage BST methodology over samples against the city's
// plan catalog.
func Fit(samples []Sample, cat *plans.Catalog, cfg Config) (*Result, error) {
	tiers := cat.UploadTiers()
	uploads := make([]float64, len(samples))
	for i, s := range samples {
		uploads[i] = s.Upload
	}
	type tierBucket struct {
		idxs  []int
		downs []float64
	}
	var buckets []tierBucket
	bucket := func(res *Result) []stageInput {
		// Assign each sample to an upload tier. The pass is fanned out
		// over fixed sample chunks: each chunk classifies its samples with
		// a chunk-local scratch buffer and collects chunk-local tier
		// buckets, which are then concatenated in chunk order — yielding
		// exactly the bucket ordering the serial loop would produce.
		res.Assignments = make([]Assignment, len(samples))
		chunkBuckets := parallel.MapChunks(cfg.Parallelism, len(samples), assignChunk,
			func(_, lo, hi int) []tierBucket {
				bs := make([]tierBucket, len(tiers))
				scratch := make([]float64, res.Upload.Model.K())
				for i := lo; i < hi; i++ {
					s := samples[i]
					a := res.Upload.assign(s.Upload, scratch)
					res.Assignments[i] = a
					if ti := a.UploadTier; ti >= 0 {
						bs[ti].idxs = append(bs[ti].idxs, i)
						bs[ti].downs = append(bs[ti].downs, s.Download)
					}
				}
				return bs
			})
		buckets = make([]tierBucket, len(tiers))
		ins := make([]stageInput, len(tiers))
		for ti := range buckets {
			b := &buckets[ti]
			for _, bs := range chunkBuckets {
				b.idxs = append(b.idxs, bs[ti].idxs...)
				b.downs = append(b.downs, bs[ti].downs...)
			}
			ins[ti] = stageInput{xs: b.downs}
		}
		return ins
	}
	// The final per-sample plan assignment: each tier writes only its own
	// samples' Assignments.
	assign := func(res *Result, ti int) {
		ds := &res.Downloads[ti]
		var scratch []float64
		if ds.Model != nil {
			scratch = make([]float64, ds.Model.K())
		}
		b := &buckets[ti]
		for bi, i := range b.idxs {
			ds.assign(&res.Assignments[i], b.downs[bi], tiers[ti], scratch)
		}
	}
	return fitStages(stageInput{xs: uploads}, cat, tiers, cfg, bucket, assign)
}

// assignChunk is the fixed per-chunk sample count of the stage-1 assignment
// pass. Like the EM chunk size, it is a constant so the bucket
// concatenation order never depends on the worker count.
const assignChunk = 8192

// downloadInitMeans builds the stage-2 initial component means: the KDE
// peak locations (the clusters the paper counts in Figs 5 and 7), ensuring
// every member plan's advertised download is represented, capped at
// maxDownloadClusters by keeping the densest peaks.
func downloadInitMeans(peaks []stats.Peak, tier plans.UploadTier) []float64 {
	kept := make([]stats.Peak, len(peaks))
	copy(kept, peaks)
	if len(kept) > maxDownloadClusters {
		sort.Slice(kept, func(a, b int) bool { return kept[a].Density > kept[b].Density })
		kept = kept[:maxDownloadClusters]
	}
	means := make([]float64, 0, len(kept)+len(tier.Plans))
	for _, p := range kept {
		means = append(means, p.X)
	}
	// Guarantee a component near each advertised plan speed so sparsely
	// measured plans still get a cluster.
	for _, p := range tier.Plans {
		adv := float64(p.Download)
		near := false
		for _, m := range means {
			if math.Abs(m-adv) < 0.3*adv {
				near = true
				break
			}
		}
		if !near && len(means) < maxDownloadClusters {
			means = append(means, adv)
		}
	}
	if len(means) == 0 {
		means = append(means, float64(tier.Plans[0].Download))
	}
	sort.Float64s(means)
	return means
}

// matchUploadClusters maps each fitted upload component to the nearest
// offered upload rate within uploadMatchTol, or -1 (off catalog).
func matchUploadClusters(m *stats.GMM, tiers []plans.UploadTier) []int {
	out := make([]int, m.K())
	for c, comp := range m.Components {
		best, bestRel := -1, math.Inf(1)
		for ti, tier := range tiers {
			offered := float64(tier.Upload)
			rel := math.Abs(comp.Mean-offered) / offered
			if rel < bestRel {
				best, bestRel = ti, rel
			}
		}
		if bestRel <= uploadMatchTol {
			out[c] = best
		} else {
			out[c] = -1
		}
	}
	return out
}

// mapDownloadClusters implements the paper's cluster-to-plan rule: a
// download cluster belongs to the slowest member plan whose advertised
// download (times DownloadHeadroom) covers the cluster mean. Clusters
// above every plan's ceiling belong to the fastest plan.
func mapDownloadClusters(m *stats.GMM, tier plans.UploadTier) []int {
	out := make([]int, m.K())
	for c, comp := range m.Components {
		out[c] = planByCeiling(comp.Mean, tier)
	}
	return out
}

// planByCeiling returns the 1-based plan tier for a download value under
// the DownloadHeadroom rule.
func planByCeiling(down float64, tier plans.UploadTier) int {
	for r, p := range tier.Plans {
		if down <= float64(p.Download)*DownloadHeadroom {
			return tier.FirstTier + r
		}
	}
	return tier.LastTier
}
