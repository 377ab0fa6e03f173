package core

import (
	"reflect"
	"testing"

	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// fitSketchesOf runs Fit over the panel, then re-deposits every sample into
// tier sketches under its fitted assignment — the same bridge the serving
// mode uses for its base sketches.
func fitSketchesOf(t *testing.T, samples []Sample, cat *plans.Catalog, cfg Config, spec SketchSpec) (*Result, *TierSketches) {
	t.Helper()
	res, err := Fit(samples, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := SketchesFromResult(res, samples, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, ts
}

// shardTierSketches splits the deposits across `shards` sketch sets,
// bucketing each sample by the reference assignments.
func shardTierSketches(t *testing.T, res *Result, samples []Sample, spec SketchSpec, shards int) []*TierSketches {
	t.Helper()
	out := make([]*TierSketches, shards)
	tiers := len(res.Catalog.UploadTiers())
	for i := range out {
		ts, err := NewTierSketches(spec, tiers)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ts
	}
	for i, s := range samples {
		out[i%shards].AddSample(res.Assignments[i].UploadTier, s.Download, s.Upload)
	}
	return out
}

// TestFitFromSketchesShardMergeDeterminism is the core-layer determinism
// gate: FitFromSketches over any sharding and merge order of the same
// deposits produces a Result byte-identical to the single-sketch fit —
// models, peaks, cluster-plan mappings, everything except the (absent)
// per-sample assignments.
func TestFitFromSketchesShardMergeDeterminism(t *testing.T) {
	samples, _, cat := mbaSamples(t, 20000)
	cfg := Config{FastFit: true}
	spec := SketchSpecFor(cat)
	res, single := fitSketchesOf(t, samples, cat, cfg, spec)

	want, err := FitFromSketches(single, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Upload.Model == nil || len(want.Downloads) != len(cat.UploadTiers()) {
		t.Fatal("sketch fit incomplete")
	}

	tiers := len(cat.UploadTiers())
	for _, shards := range []int{1, 7, 64} {
		parts := shardTierSketches(t, res, samples, spec, shards)
		// Identity, reversed, and an odd-stride interleave (stride 5 is
		// coprime to every swept shard count, so it is a permutation).
		orders := [][]int{make([]int, shards), make([]int, shards), make([]int, shards)}
		for i := 0; i < shards; i++ {
			orders[0][i] = i
			orders[1][i] = shards - 1 - i
			orders[2][i] = i * 5 % shards
		}
		for oi, order := range orders {
			merged, err := NewTierSketches(spec, tiers)
			if err != nil {
				t.Fatal(err)
			}
			for _, pi := range order {
				if err := merged.Merge(parts[pi]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := FitFromSketches(merged, cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d order=%d: merged fit differs from single-sketch fit", shards, oi)
			}
		}
	}
}

// TestFitFromSketchesClassifies checks the sketch-fit Result drives the
// classifier: assignments over the panel broadly agree with the raw-sample
// Fit's own assignments (the two fits see the same masses up to binning
// quantization, so tier calls should rarely differ).
func TestFitFromSketchesClassifies(t *testing.T) {
	samples, _, cat := mbaSamples(t, 20000)
	cfg := Config{FastFit: true}
	spec := SketchSpecFor(cat)
	res, ts := fitSketchesOf(t, samples, cat, cfg, spec)

	skRes, err := FitFromSketches(ts, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClassifier(skRes)
	agree := 0
	for i, s := range samples {
		if cl.ClassifyOne(s.Download, s.Upload).Tier == res.Assignments[i].Tier {
			agree++
		}
	}
	if rate := float64(agree) / float64(len(samples)); rate < 0.99 {
		t.Fatalf("sketch-fit classifier agrees with raw fit on %.4f of panel, want >= 0.99", rate)
	}
}

// BenchmarkFitFromSketches is the serving refit latency: the full BST refit
// the ingest refresh loop runs per trigger — stage-1 upload GMM off the
// merged upload sketch, then per-tier download fits — with no per-sample
// pass anywhere. This is the number that bounds how often live refresh can
// afford to fire.
func BenchmarkFitFromSketches(b *testing.B) {
	samples, _, cat := mbaSamples(b, 20000)
	cfg := Config{FastFit: true}
	spec := SketchSpecFor(cat)
	res, err := Fit(samples, cat, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := SketchesFromResult(res, samples, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := FitFromSketches(ts, cat, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Upload.Model == nil {
			b.Fatal("incomplete fit")
		}
	}
}

// TestTierSketchesMergeErrors pins the staleness failure modes: mismatched
// tier counts and mismatched grids both refuse to merge.
func TestTierSketchesMergeErrors(t *testing.T) {
	spec := SketchSpec{
		Upload:   GridSpec{Lo: 0, Hi: 140, Bins: 256},
		Download: GridSpec{Lo: 0, Hi: 4000, Bins: 256},
	}
	a, err := NewTierSketches(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTierSketches(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("tier-count mismatch merged")
	}
	other := spec
	other.Upload.Bins = 128
	c, err := NewTierSketches(other, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err == nil {
		t.Fatal("grid mismatch merged")
	}
}

// TestSketchSpecForDerivation pins the spec derivation: catalog-scaled
// spans, default resolution, and pure-function stability.
func TestSketchSpecForDerivation(t *testing.T) {
	cat, _ := plans.ByCity("A")
	s1 := SketchSpecFor(cat)
	s2 := SketchSpecFor(cat)
	if s1 != s2 {
		t.Fatal("spec not a pure function of the catalog")
	}
	if s1.Upload.Bins != stats.DefaultSketchBins || s1.Download.Bins != stats.DefaultSketchBins {
		t.Fatalf("spec resolution %+v, want %d bins", s1, stats.DefaultSketchBins)
	}
	if s1.Upload.Lo != 0 || s1.Download.Lo != 0 {
		t.Fatalf("spec spans must start at 0: %+v", s1)
	}
	if s1.Download.Hi != sketchSpanFactor*float64(cat.MaxDownload()) {
		t.Fatalf("download span %v, want %v", s1.Download.Hi, sketchSpanFactor*float64(cat.MaxDownload()))
	}
}
