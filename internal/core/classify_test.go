package core

import (
	"testing"

	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// synthWithOffCatalog draws a tiered sample set plus an off-catalog cluster
// (uploads near 1 Mbps, the paper's M-Lab ~1 Mbps group), so the fitted
// model carries every assignment branch: in-catalog tiers, the stage-2
// models, and an upload cluster mapped to -1.
func synthWithOffCatalog(cat *plans.Catalog, n int, seed int64) []Sample {
	rng := stats.NewRNG(seed)
	weights := make([]float64, len(cat.Plans))
	for i := range weights {
		weights[i] = 1 / float64(len(cat.Plans))
	}
	samples, _ := synthTiered(cat, n, seed, weights)
	// Replace a slice of the samples with the off-catalog group.
	for i := 0; i < n/8; i++ {
		samples[i] = Sample{
			Download: 3 * rng.TruncNormal(1, 0.15, 0.5, 1.5),
			Upload:   1 * rng.TruncNormal(1, 0.1, 0.6, 1.4),
		}
	}
	return samples
}

// TestClassifyOneMatchesBatch is the ingest fast path's contract: for every
// sample of a dataset, classifying it one-at-a-time against the fitted
// Result reproduces the batch Assignments bit-identically — same tier, same
// upload tier, and the exact same confidence bits — on both the exact and
// the -fast fit paths.
func TestClassifyOneMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{}},
		{"fast", Config{FastFit: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offCatalog := 0
			for _, cat := range plans.AllCities() {
				samples := synthWithOffCatalog(cat, 4000, 7)
				res, err := Fit(samples, cat, tc.cfg)
				if err != nil {
					t.Fatalf("%s: %v", cat.ISP, err)
				}
				cl := NewClassifier(res)
				for i, s := range samples {
					got := cl.ClassifyOne(s.Download, s.Upload)
					want := res.Assignments[i]
					if got != want {
						t.Fatalf("%s sample %d (%v): ClassifyOne = %+v, batch = %+v",
							cat.ISP, i, s, got, want)
					}
					if got.UploadTier < 0 {
						offCatalog++
					}
				}
			}
			// Whether the ~1 Mbps group forms its own cluster depends on
			// each catalog's offered rates; it reliably does for at least
			// one city, which is what keeps the ti<0 branch covered.
			if offCatalog == 0 {
				t.Errorf("no off-catalog assignments in any city; branch untested")
			}
		})
	}
}

// TestClassifyOneSparseTierFallback pins the headroom-rule fallback: with a
// sample barely past stage 1's minimum, some upload tiers get too few
// samples for a stage-2 model, and ClassifyOne must reproduce the batch
// fallback assignment for them too.
func TestClassifyOneSparseTierFallback(t *testing.T) {
	cat := plans.CityA()
	weights := make([]float64, len(cat.Plans))
	for i := range weights {
		weights[i] = 1 / float64(len(cat.Plans))
	}
	samples, _ := synthTiered(cat, 2*len(cat.UploadTiers())+3, 11, weights)
	res, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fallback := false
	for _, ds := range res.Downloads {
		if ds.Model == nil && ds.SampleCount > 0 {
			fallback = true
		}
	}
	if !fallback {
		t.Skip("no sparse tier produced; fixture drifted")
	}
	cl := NewClassifier(res)
	for i, s := range samples {
		if got, want := cl.ClassifyOne(s.Download, s.Upload), res.Assignments[i]; got != want {
			t.Fatalf("sample %d: ClassifyOne = %+v, batch = %+v", i, got, want)
		}
	}
}

// TestClassifyOneNoAllocs is the hot-path allocation gate: steady-state
// ClassifyOne must not allocate (the scratch pool absorbs the posterior
// buffer). The benchmark reports the same number; this test fails the suite
// if it regresses.
func TestClassifyOneNoAllocs(t *testing.T) {
	cat := plans.CityA()
	samples := synthWithOffCatalog(cat, 3000, 3)
	res, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClassifier(res)
	cl.ClassifyOne(samples[0].Download, samples[0].Upload) // warm the pool
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		s := samples[i%len(samples)]
		cl.ClassifyOne(s.Download, s.Upload)
		i++
	}); n != 0 {
		t.Errorf("ClassifyOne allocates %.1f objects/op, want 0", n)
	}
}

// TestClassifyOneConcurrent drives the classifier from many goroutines (the
// ingest server's access pattern) under -race, each verifying against the
// batch assignments.
func TestClassifyOneConcurrent(t *testing.T) {
	cat := plans.CityB()
	samples := synthWithOffCatalog(cat, 2000, 5)
	res, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClassifier(res)
	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < len(samples); i += workers {
				s := samples[i]
				if got, want := cl.ClassifyOne(s.Download, s.Upload), res.Assignments[i]; got != want {
					errc <- &mismatchError{i: i, got: got, want: want}
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

type mismatchError struct {
	i         int
	got, want Assignment
}

func (e *mismatchError) Error() string {
	return "concurrent ClassifyOne mismatch"
}

func BenchmarkClassifyOne(b *testing.B) {
	cat := plans.CityA()
	samples := synthWithOffCatalog(cat, 10000, 3)
	res, err := Fit(samples, cat, Config{})
	if err != nil {
		b.Fatal(err)
	}
	cl := NewClassifier(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		cl.ClassifyOne(s.Download, s.Upload)
	}
}
