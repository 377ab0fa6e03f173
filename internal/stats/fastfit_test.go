package stats

import (
	"math"
	"reflect"
	"testing"

	"speedctx/internal/fitcache"
)

// speedMixtures are sample shapes matching what the netsim generators feed
// the BST pipeline: a two-tier upload distribution, a multi-tier download
// distribution with a wide spread, and a contaminated low-speed lobe.
var speedMixtures = map[string]MixtureSpec{
	"uploads": {
		{Weight: 0.62, Mean: 11, Variance: 4},
		{Weight: 0.38, Mean: 42, Variance: 9},
	},
	"downloads": {
		{Weight: 0.35, Mean: 28, Variance: 30},
		{Weight: 0.30, Mean: 95, Variance: 90},
		{Weight: 0.25, Mean: 210, Variance: 300},
		{Weight: 0.10, Mean: 480, Variance: 900},
	},
	"contaminated": {
		{Weight: 0.15, Mean: 1.1, Variance: 0.05},
		{Weight: 0.55, Mean: 12, Variance: 5},
		{Weight: 0.30, Mean: 40, Variance: 10},
	},
}

// TestBinnedKDEAccuracy is the binned-KDE accuracy gate: on speed-test
// shaped distributions the fast density must sit within 1e-3 of the exact
// density, normalized by the exact curve's peak (the pointwise criterion
// linear binning can actually guarantee — far tails lose relative precision
// by construction, but carry no density mass to matter). The peak sets must
// agree too, since peak counting is what the BST pipeline consumes.
func TestBinnedKDEAccuracy(t *testing.T) {
	const n = 60000
	for name, spec := range speedMixtures {
		t.Run(name, func(t *testing.T) {
			xs := spec.Sample(NewRNG(97), n)
			exact := NewKDE(xs, Silverman)
			fast := NewKDE(xs, Silverman)
			fast.FastFit = true

			eg := exact.Grid(512)
			fg := fast.Grid(512)
			if len(eg) != len(fg) {
				t.Fatalf("grid sizes differ: %d vs %d", len(eg), len(fg))
			}
			peak := 0.0
			for _, p := range eg {
				if p.Y > peak {
					peak = p.Y
				}
			}
			worst := 0.0
			for i := range eg {
				if eg[i].X != fg[i].X {
					t.Fatalf("grid x mismatch at %d", i)
				}
				if d := math.Abs(eg[i].Y-fg[i].Y) / peak; d > worst {
					worst = d
				}
			}
			if worst > 1e-3 {
				t.Errorf("binned KDE error %.2e of peak, want <= 1e-3", worst)
			}
			ep := exact.Peaks(512, 0.02)
			fp := fast.Peaks(512, 0.02)
			if len(ep) != len(fp) {
				t.Errorf("peak count: exact %d, binned %d", len(ep), len(fp))
			}
		})
	}
}

// TestFastFitThreshold pins the automatic fallback: below fastFitMinN the
// FastFit knob must not change a single bit of the output.
func TestFastFitThreshold(t *testing.T) {
	xs := speedMixtures["uploads"].Sample(NewRNG(13), fastFitMinN-1)

	exact := NewKDE(xs, Silverman)
	fast := NewKDE(xs, Silverman)
	fast.FastFit = true
	if !reflect.DeepEqual(exact.Grid(257), fast.Grid(257)) {
		t.Error("KDE: FastFit changed output below the threshold")
	}

	em, err := FitGMM(xs, 2, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := FitGMM(xs, 2, GMMConfig{FastFit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(em, fm) {
		t.Error("GMM: FastFit changed output below the threshold")
	}
}

// TestHistogramEMAccuracy is the histogram-EM accuracy gate: on a large
// sample the binned fit must recover parameters within the binning
// quantization and classify the sample almost identically to the exact
// fit — the tier-assignment agreement the BST pipeline depends on.
func TestHistogramEMAccuracy(t *testing.T) {
	const n = 120000
	for _, fit := range []struct {
		name string
		run  func(xs []float64, cfg GMMConfig) (*GMM, error)
	}{
		{"FitGMM", func(xs []float64, cfg GMMConfig) (*GMM, error) {
			return FitGMM(xs, 3, cfg)
		}},
		{"FitGMMInit", func(xs []float64, cfg GMMConfig) (*GMM, error) {
			return FitGMMInit(xs, []float64{1, 12, 40}, cfg)
		}},
	} {
		t.Run(fit.name, func(t *testing.T) {
			xs := speedMixtures["contaminated"].Sample(NewRNG(31), n)
			exact, err := fit.run(xs, GMMConfig{})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := fit.run(xs, GMMConfig{FastFit: true})
			if err != nil {
				t.Fatal(err)
			}
			if exact.K() != fast.K() {
				t.Fatalf("component counts differ: %d vs %d", exact.K(), fast.K())
			}
			for c := range exact.Components {
				e, f := exact.Components[c], fast.Components[c]
				scale := math.Max(math.Abs(e.Mean), 1)
				if math.Abs(e.Mean-f.Mean)/scale > 0.01 {
					t.Errorf("component %d mean: exact %.4f, fast %.4f", c, e.Mean, f.Mean)
				}
				if math.Abs(e.Weight-f.Weight) > 0.01 {
					t.Errorf("component %d weight: exact %.4f, fast %.4f", c, e.Weight, f.Weight)
				}
			}
			scratch := make([]float64, exact.K())
			agree := 0
			for _, x := range xs {
				ec, _ := exact.PredictScratch(x, scratch)
				fc, _ := fast.PredictScratch(x, scratch)
				if ec == fc {
					agree++
				}
			}
			if frac := float64(agree) / float64(n); frac < 0.999 {
				t.Errorf("assignment agreement %.5f, want >= 0.999", frac)
			}
		})
	}
}

// TestFastFitDeterminism extends the PR 1 determinism contract to the fast
// paths: binned KDE grids and histogram-EM fits are bit-identical at every
// Parallelism setting, run-to-run.
func TestFastFitDeterminism(t *testing.T) {
	xs := speedMixtures["downloads"].Sample(NewRNG(71), 50000)

	serialKDE := NewKDE(xs, Silverman)
	serialKDE.Parallelism = 1
	serialKDE.FastFit = true
	wantGrid := serialKDE.Grid(513)
	wantPeaks := serialKDE.Peaks(513, 0.02)

	serialFit, err := FitGMMInit(xs, []float64{30, 95, 210, 480}, GMMConfig{FastFit: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{0, 2, 4, 16} {
		k := NewKDE(xs, Silverman)
		k.Parallelism = p
		k.FastFit = true
		for rep := 0; rep < 2; rep++ {
			if got := k.Grid(513); !reflect.DeepEqual(got, wantGrid) {
				t.Fatalf("Parallelism=%d: binned Grid differs from serial", p)
			}
			if got := k.Peaks(513, 0.02); !reflect.DeepEqual(got, wantPeaks) {
				t.Fatalf("Parallelism=%d: binned Peaks differ from serial", p)
			}
		}
		m, err := FitGMMInit(xs, []float64{30, 95, 210, 480}, GMMConfig{FastFit: true, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, serialFit) {
			t.Fatalf("Parallelism=%d: histogram-EM fit differs from serial", p)
		}
	}
}

// TestFitCacheHitByteIdentical pins the cache contract: a hit returns a fit
// deep-equal to the miss that populated it, the cache's own copy cannot be
// mutated through a returned model, and the counters record the traffic.
func TestFitCacheHitByteIdentical(t *testing.T) {
	xs := speedMixtures["uploads"].Sample(NewRNG(3), 10000)
	cache := fitcache.New(8)
	cfg := GMMConfig{Cache: cache}

	uncached, err := FitGMM(xs, 2, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	miss, err := FitGMM(xs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := FitGMM(xs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(miss, uncached) {
		t.Error("cached-path miss differs from uncached fit")
	}
	if !reflect.DeepEqual(hit, miss) {
		t.Error("cache hit differs from the fit that populated it")
	}
	if s := cache.Snapshot(); s.Hits != 1 || s.Misses != 1 || s.Len != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}

	// Mutating a returned model must not poison the cache.
	hit.Components[0].Weight = -1
	clean, err := FitGMM(xs, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, miss) {
		t.Error("cache entry was mutated through a returned model")
	}

	// Hits must also serve across parallelism settings — the key excludes
	// the knob because results are bit-identical at every setting.
	cfgPar := cfg
	cfgPar.Parallelism = 4
	par, err := FitGMM(xs, 2, cfgPar)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, miss) {
		t.Error("cache hit at Parallelism=4 differs")
	}
}

// TestFitCacheKeySeparation drives differently configured fits through one
// cache and checks none of them serves another's entry.
func TestFitCacheKeySeparation(t *testing.T) {
	xs := speedMixtures["uploads"].Sample(NewRNG(17), 9000)
	ys := append(append([]float64(nil), xs[1:]...), xs[0]) // rotated sample
	cache := fitcache.New(32)

	m2, _ := FitGMM(xs, 2, GMMConfig{Cache: cache})
	m3, _ := FitGMM(xs, 3, GMMConfig{Cache: cache})
	if reflect.DeepEqual(m2, m3) {
		t.Fatal("k=2 and k=3 fits should differ")
	}
	mi, _ := FitGMMInit(xs, m2.Means(), GMMConfig{Cache: cache})
	mt, _ := FitGMM(xs, 2, GMMConfig{Cache: cache, Tol: 1e-2})
	my, _ := FitGMM(ys, 2, GMMConfig{Cache: cache})
	_ = mi
	_ = mt
	_ = my
	if s := cache.Snapshot(); s.Misses != 5 || s.Hits != 0 {
		t.Errorf("distinct (sample, config) fits should all miss: %+v", s)
	}
	// Replaying each yields hits only.
	FitGMM(xs, 2, GMMConfig{Cache: cache})
	FitGMM(xs, 3, GMMConfig{Cache: cache})
	if s := cache.Snapshot(); s.Hits != 2 {
		t.Errorf("replays should hit: %+v", s)
	}
}

// TestSelectGMMWithCache checks the model-selection fallback composes with
// the cache: the per-k fits are cached individually, so a second selection
// over the same sample performs zero EM work.
func TestSelectGMMWithCache(t *testing.T) {
	xs := speedMixtures["uploads"].Sample(NewRNG(29), 8000)
	cache := fitcache.New(16)
	cfg := GMMConfig{Cache: cache}
	first, err := SelectGMM(xs, 1, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := cache.Snapshot().Misses
	second, err := SelectGMM(xs, 1, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached selection differs from cold selection")
	}
	if s := cache.Snapshot(); s.Misses != missesAfterFirst {
		t.Errorf("second selection should be all hits: %+v", s)
	}
}
