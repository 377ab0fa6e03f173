package core

import (
	"reflect"
	"sync"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/fitcache"
	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// mbaPanel memoizes one netsim-backed MBA generation shared by the fast-fit
// tests — the simulation dominates their runtime, the fits do not.
var mbaPanel struct {
	once    sync.Once
	samples []Sample
	truth   []int
	cat     *plans.Catalog
}

// mbaSamples returns the first n samples of an MBA-style labelled panel
// large enough for the fast paths to engage on stage 1 (n well above the
// binning threshold), generated via the netsim-backed generator — the same
// distributions the paper's validation runs on.
func mbaSamples(t testing.TB, n int) ([]Sample, []int, *plans.Catalog) {
	t.Helper()
	mbaPanel.once.Do(func() {
		cat, ok := plans.ByCity("A")
		if !ok {
			t.Fatal("no catalog for city A")
		}
		recs := dataset.GenerateMBA(cat, 20, 20000, 424242)
		mbaPanel.cat = cat
		mbaPanel.samples = make([]Sample, len(recs))
		mbaPanel.truth = make([]int, len(recs))
		for i, r := range recs {
			mbaPanel.samples[i] = Sample{Download: r.DownloadMbps, Upload: r.UploadMbps}
			mbaPanel.truth[i] = r.Tier
		}
	})
	if n > len(mbaPanel.samples) {
		n = len(mbaPanel.samples)
	}
	return mbaPanel.samples[:n], mbaPanel.truth[:n], mbaPanel.cat
}

// TestFastFitMBAAgreement is the pipeline-level accuracy gate of the fast
// paths: on the MBA validation panel the binned KDE must count the same
// upload peaks as the exact pipeline, and the end-to-end tier assignment
// must agree with the exact fit on >= 99.9% of samples — so enabling
// FastFit cannot move the paper's Table 2 accuracy numbers beyond noise.
func TestFastFitMBAAgreement(t *testing.T) {
	samples, truth, cat := mbaSamples(t, 20000)

	exact, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Fit(samples, cat, Config{FastFit: true})
	if err != nil {
		t.Fatal(err)
	}

	if len(exact.Upload.Peaks) != len(fast.Upload.Peaks) {
		t.Errorf("upload peak count: exact %d, fast %d",
			len(exact.Upload.Peaks), len(fast.Upload.Peaks))
	}
	agreeTier, agreeUp := 0, 0
	for i := range exact.Assignments {
		if exact.Assignments[i].Tier == fast.Assignments[i].Tier {
			agreeTier++
		}
		if exact.Assignments[i].UploadTier == fast.Assignments[i].UploadTier {
			agreeUp++
		}
	}
	n := float64(len(samples))
	if frac := float64(agreeUp) / n; frac < 0.999 {
		t.Errorf("upload-tier agreement %.5f, want >= 0.999", frac)
	}
	if frac := float64(agreeTier) / n; frac < 0.999 {
		t.Errorf("plan-tier agreement %.5f, want >= 0.999", frac)
	}

	// Ground-truth accuracy must be preserved, not just mutual agreement.
	evExact, err := Evaluate(exact, truth)
	if err != nil {
		t.Fatal(err)
	}
	evFast, err := Evaluate(fast, truth)
	if err != nil {
		t.Fatal(err)
	}
	if d := evExact.UploadAccuracy() - evFast.UploadAccuracy(); d > 0.002 || d < -0.002 {
		t.Errorf("upload accuracy moved: exact %.4f, fast %.4f",
			evExact.UploadAccuracy(), evFast.UploadAccuracy())
	}
}

// TestFastFitDeterministicAcrossParallelism extends the PR 1 pipeline
// determinism gate to the fast paths: the full fast-fit Result must be
// bit-identical at every Parallelism setting.
func TestFastFitDeterministicAcrossParallelism(t *testing.T) {
	samples, _, cat := mbaSamples(t, 12000)
	serial, err := Fit(samples, cat, Config{FastFit: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 3, 8} {
		got, err := Fit(samples, cat, Config{FastFit: true, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("Parallelism=%d: fast-fit Result differs from serial", p)
		}
	}
}

// TestFitCacheEndToEnd pins the cache contract at the pipeline level: a
// second Fit over the same samples with a shared FitCache returns a Result
// identical to the first (hits replace every GMM fit), including across
// parallelism settings.
func TestFitCacheEndToEnd(t *testing.T) {
	samples, _, cat := mbaSamples(t, 8000)
	cache := fitcache.New(64)

	cold, err := Fit(samples, cat, Config{FitCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	missesAfterCold := cache.Snapshot().Misses
	if missesAfterCold == 0 {
		t.Fatal("cold pipeline run should populate the cache")
	}
	warm, err := Fit(samples, cat, Config{FitCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("cache-served Result differs from cold Result")
	}
	s := cache.Snapshot()
	if s.Misses != missesAfterCold {
		t.Errorf("warm run should not miss: %+v", s)
	}
	if s.Hits == 0 {
		t.Errorf("warm run should hit: %+v", s)
	}

	warmPar, err := Fit(samples, cat, Config{FitCache: cache, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warmPar) {
		t.Error("cache-served Result at Parallelism=8 differs")
	}
}

// BenchmarkFit is the one-shot BST fit over raw samples, exact and with the
// binned fast paths, on a panel large enough for the fast paths to engage
// at stage 1.
func BenchmarkFit(b *testing.B) {
	samples, _, cat := mbaSamples(b, 12000)
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"exact", Config{}}, {"fast", Config{FastFit: true}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fit(samples, cat, bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFastFitEngagedDeterministicAcrossParallelism is the fast paths'
// determinism gate at sizes where they engage: stage 1 and the largest
// stage-2 slice hold more than stats' fast-path threshold (fastFitMinN,
// 4,096 points). The FastFit Result must be bit-identical at Parallelism
// 1 and 4, and its stages must report what the binned KDE and the
// histogram EM compute, which differ from the exact KDE and EM: so the
// gate compares fast fits, not exact fits taken under a fast flag.
func TestFastFitEngagedDeterministicAcrossParallelism(t *testing.T) {
	const fastFitMinN = 4096
	cat := plans.CityA()
	samples, _ := synthTiered(cat, 24000, 28, []float64{0.2, 0.2, 0.1, 0.15, 0.15, 0.2})
	fit := func(p int) *Result {
		res, err := Fit(samples, cat, Config{FastFit: true, Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		return res
	}
	serial := fit(1)
	if !reflect.DeepEqual(fit(4), serial) {
		t.Fatal("Parallelism=4: fast-fit Result differs from serial")
	}

	fast, exact := &Config{FastFit: true, Parallelism: 1}, &Config{Parallelism: 1}
	checkPeaks := func(stage string, xs []float64, got []stats.Peak) {
		t.Helper()
		in := stageInput{xs: xs}
		if !reflect.DeepEqual(got, in.peaks(fast)) {
			t.Fatalf("%s: peaks differ from the binned KDE's", stage)
		}
		if reflect.DeepEqual(got, in.peaks(exact)) {
			t.Fatalf("%s: peaks equal the exact KDE's, so the binned KDE shows nothing", stage)
		}
	}
	uploads := make([]float64, len(samples))
	for i, s := range samples {
		uploads[i] = s.Upload
	}
	checkPeaks("stage 1", uploads, serial.Upload.Peaks)

	tiers := cat.UploadTiers()
	big := 0
	for ti, ds := range serial.Downloads {
		if ds.SampleCount > serial.Downloads[big].SampleCount {
			big = ti
		}
	}
	ds := serial.Downloads[big]
	if ds.SampleCount <= fastFitMinN || ds.Model == nil {
		t.Fatalf("largest stage-2 slice holds %d samples (model %v), want over %d", ds.SampleCount, ds.Model != nil, fastFitMinN)
	}
	var downs []float64
	for i, a := range serial.Assignments {
		if a.UploadTier == big {
			downs = append(downs, samples[i].Download)
		}
	}
	checkPeaks("stage 2", downs, ds.Peaks)
	init := downloadInitMeans(ds.Peaks, tiers[big])
	histEM, err := stats.FitGMMInit(downs, init, fast.resolve())
	if err != nil {
		t.Fatal(err)
	}
	exactEM, err := stats.FitGMMInit(downs, init, exact.resolve())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Model, histEM) {
		t.Fatal("stage 2: model differs from the histogram EM's")
	}
	if reflect.DeepEqual(ds.Model, exactEM) {
		t.Fatal("stage 2: model equals the exact EM's, so the histogram EM shows nothing")
	}
}
