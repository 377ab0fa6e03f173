package core

import (
	"fmt"

	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// This file is the sketch-native BST entry point (DESIGN.md §12): the
// two-stage pipeline of Fit, refit from mergeable bin-mass sketches instead
// of raw samples. A TierSketches value carries one upload sketch plus one
// download sketch per catalog upload tier — the exact per-tier slices
// stage 2 clusters — so refitting a city needs only O(tiers · bins) state,
// however many rows have been ingested. Because sketch merging is exact
// (integer mass addition), FitFromSketches over any sharding/merge order of
// the same rows produces byte-identical Results — the property the ingest
// refresh loop relies on (TestFitFromSketchesShardMergeDeterminism).

// GridSpec is the grid key of one sketch axis: bins centers spanning
// [Lo, Hi]. Two sketches merge only when their specs match bit-for-bit.
type GridSpec struct {
	Lo, Hi float64
	Bins   int
}

// NewSketch builds an empty sketch over this grid.
func (g GridSpec) NewSketch() (*stats.Sketch, error) {
	return stats.NewSketch(g.Lo, g.Hi, g.Bins)
}

// SketchSpec declares the grids of one city's tier sketches: one axis for
// upload speeds, one shared by every per-tier download sketch. Specs are
// derived from the plan catalog (SketchSpecFor), not from data, so every
// shard and segment of a city agrees on the grid without coordination.
type SketchSpec struct {
	Upload   GridSpec
	Download GridSpec
}

// sketchSpanFactor is the headroom factor of SketchSpecFor's grids: spans
// reach 4× the fastest advertised speed, so overprovisioned measurements
// (typically ≤ DownloadHeadroom × advertised) land far from the
// clamping edge bin.
const sketchSpanFactor = 4

// SketchSpecFor derives a city's sketch spec from its plan catalog:
// [0, 4×fastest advertised] on each axis, at stats.DefaultSketchBins, the
// single-pass -fast resolution. The spec is a pure function of the
// catalog, so independently configured writers produce mergeable sketches.
func SketchSpecFor(cat *plans.Catalog) SketchSpec {
	maxUp := 0.0
	for _, t := range cat.UploadTiers() {
		if u := float64(t.Upload); u > maxUp {
			maxUp = u
		}
	}
	if maxUp <= 0 {
		maxUp = 1
	}
	maxDown := float64(cat.MaxDownload())
	if maxDown <= 0 {
		maxDown = 1
	}
	return SketchSpec{
		Upload:   GridSpec{Lo: 0, Hi: sketchSpanFactor * maxUp, Bins: stats.DefaultSketchBins},
		Download: GridSpec{Lo: 0, Hi: sketchSpanFactor * maxDown, Bins: stats.DefaultSketchBins},
	}
}

// TierSketches is the sketch state of one city: the upload distribution,
// plus the download distribution of each upload tier (indexed like
// Catalog.UploadTiers()). Downloads of off-catalog samples (UploadTier -1)
// carry no tier sketch — stage 2 never clusters them — but still count in
// the upload sketch, mirroring Fit.
type TierSketches struct {
	Spec      SketchSpec
	Upload    *stats.Sketch
	Downloads []*stats.Sketch
}

// NewTierSketches builds empty sketches for a city with the given number of
// catalog upload tiers.
func NewTierSketches(spec SketchSpec, tiers int) (*TierSketches, error) {
	up, err := spec.Upload.NewSketch()
	if err != nil {
		return nil, fmt.Errorf("core: upload sketch: %w", err)
	}
	ts := &TierSketches{Spec: spec, Upload: up, Downloads: make([]*stats.Sketch, tiers)}
	for i := range ts.Downloads {
		if ts.Downloads[i], err = spec.Download.NewSketch(); err != nil {
			return nil, fmt.Errorf("core: download sketch: %w", err)
		}
	}
	return ts, nil
}

// AddSample deposits one classified measurement: the upload speed always,
// the download speed into its upload tier's sketch when the tier is on
// catalog. The caller supplies the stage-1 verdict (Assignment.UploadTier),
// so the bucketing matches the classifier that was serving when the row
// arrived — making a segment's sketches a pure function of its rows.
func (t *TierSketches) AddSample(uploadTier int, down, up float64) {
	t.Upload.Observe(up)
	if uploadTier >= 0 && uploadTier < len(t.Downloads) {
		t.Downloads[uploadTier].Observe(down)
	}
}

// Count reports the number of samples deposited (the upload sketch sees
// every sample exactly once).
func (t *TierSketches) Count() int { return t.Upload.Count() }

// Merge folds o's masses into t. Tier counts and grids must match;
// otherwise the sketches describe different cities or catalog versions and
// the merge fails without mutating the upload sketch's invariants beyond
// the tiers already merged (callers treat any error as fatal staleness).
func (t *TierSketches) Merge(o *TierSketches) error {
	if len(t.Downloads) != len(o.Downloads) {
		return fmt.Errorf("%w: %d vs %d tiers", stats.ErrSketchGrid, len(t.Downloads), len(o.Downloads))
	}
	if err := t.Upload.Merge(o.Upload); err != nil {
		return fmt.Errorf("core: upload sketch: %w", err)
	}
	for i, d := range o.Downloads {
		if err := t.Downloads[i].Merge(d); err != nil {
			return fmt.Errorf("core: tier %d download sketch: %w", i, err)
		}
	}
	return nil
}

// Clone returns a deep copy (the refresh loop clones its base before
// folding segment sketches in).
func (t *TierSketches) Clone() *TierSketches {
	c := &TierSketches{Spec: t.Spec, Upload: t.Upload.Clone(), Downloads: make([]*stats.Sketch, len(t.Downloads))}
	for i, d := range t.Downloads {
		c.Downloads[i] = d.Clone()
	}
	return c
}

// SketchesFromResult deposits a fitted dataset into fresh tier sketches,
// bucketing each sample by its Result assignment — the bridge from a
// one-shot Fit (e.g. the startup model of the ingest service) into the
// incremental sketch world. len(res.Assignments) must equal len(samples).
func SketchesFromResult(res *Result, samples []Sample, spec SketchSpec) (*TierSketches, error) {
	if len(res.Assignments) != len(samples) {
		return nil, fmt.Errorf("core: %d assignments for %d samples", len(res.Assignments), len(samples))
	}
	ts, err := NewTierSketches(spec, len(res.Catalog.UploadTiers()))
	if err != nil {
		return nil, err
	}
	for i, s := range samples {
		ts.AddSample(res.Assignments[i].UploadTier, s.Download, s.Upload)
	}
	return ts, nil
}

// FitFromSketches runs the two-stage BST methodology from tier sketches
// instead of raw samples: stage 1 fits the upload mixture from the upload
// sketch (sketch KDE peak confirmation, components seeded at the offered
// rates plus off-catalog peaks), stage 2 fits each tier's download mixture
// from that tier's sketch. The Result carries models and cluster-to-plan
// mappings but no per-sample Assignments — classification happens later,
// through NewClassifier. The fit is a pure function of (sketches, catalog,
// config): any sharding and merge order of the same rows yields a
// byte-identical Result.
func FitFromSketches(ts *TierSketches, cat *plans.Catalog, cfg Config) (*Result, error) {
	tiers := cat.UploadTiers()
	if len(ts.Downloads) != len(tiers) {
		return nil, fmt.Errorf("core: sketches carry %d tiers, catalog %d", len(ts.Downloads), len(tiers))
	}
	// The stage-1 assignment pass of Fit is already baked into the sketches:
	// each download was deposited under its upload tier at ingest time.
	downs := make([]stageInput, len(ts.Downloads))
	for ti, sk := range ts.Downloads {
		downs[ti] = stageInput{sk: sk}
	}
	return fitStages(stageInput{sk: ts.Upload}, cat, tiers, cfg,
		func(*Result) []stageInput { return downs }, nil)
}
