package stats

import (
	"math"
	"reflect"
	"testing"
)

// syntheticMixture draws a deterministic two-lobe sample shaped like an
// upload-speed distribution (a big slow tier and a smaller fast tier).
func syntheticMixture(n int, seed int64) []float64 {
	return MixtureSpec{
		{Weight: 0.65, Mean: 11, Variance: 4},
		{Weight: 0.35, Mean: 42, Variance: 9},
	}.Sample(NewRNG(seed), n)
}

// TestKDEGridParallelMatchesSerial pins the tentpole determinism contract
// for the KDE: Grid and Peaks output is bit-identical at every Parallelism
// setting, run-to-run.
func TestKDEGridParallelMatchesSerial(t *testing.T) {
	xs := syntheticMixture(20000, 7)
	serial := NewKDE(xs, Silverman)
	serial.Parallelism = 1
	wantGrid := serial.Grid(513)
	wantPeaks := serial.Peaks(513, 0.02)

	for _, p := range []int{0, 2, 4, 16} {
		par := NewKDE(xs, Silverman)
		par.Parallelism = p
		for rep := 0; rep < 2; rep++ {
			if got := par.Grid(513); !reflect.DeepEqual(got, wantGrid) {
				t.Fatalf("Parallelism=%d: Grid differs from serial", p)
			}
			if got := par.Peaks(513, 0.02); !reflect.DeepEqual(got, wantPeaks) {
				t.Fatalf("Parallelism=%d: Peaks differ from serial", p)
			}
		}
	}
}

// TestFitGMMParallelMatchesSerial pins the EM determinism contract: the
// fixed-chunk sufficient-statistic merge makes the whole fit — components,
// log-likelihood, iteration count — bit-identical at every Parallelism
// setting. The sample is larger than one EM chunk so the parallel path
// really exercises multi-chunk merging.
func TestFitGMMParallelMatchesSerial(t *testing.T) {
	xs := syntheticMixture(3*emChunk+123, 11)
	fit := func(p int) *GMM {
		m, err := FitGMM(xs, 2, GMMConfig{Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		return m
	}
	serial := fit(1)
	for _, p := range []int{0, 2, 4, 16} {
		for rep := 0; rep < 2; rep++ {
			got := fit(p)
			if !reflect.DeepEqual(got.Components, serial.Components) {
				t.Fatalf("Parallelism=%d rep=%d: components %v != serial %v",
					p, rep, got.Components, serial.Components)
			}
			if got.LogLikelihood != serial.LogLikelihood {
				t.Fatalf("Parallelism=%d: LL %v != serial %v", p, got.LogLikelihood, serial.LogLikelihood)
			}
			if got.Iterations != serial.Iterations || got.Converged != serial.Converged {
				t.Fatalf("Parallelism=%d: iterations %d/%v != serial %d/%v",
					p, got.Iterations, got.Converged, serial.Iterations, serial.Converged)
			}
		}
	}
}

// TestFitGMMInitParallelMatchesSerial covers the BST path (FitGMMInit) with
// the same exact-equality contract.
func TestFitGMMInitParallelMatchesSerial(t *testing.T) {
	xs := syntheticMixture(2*emChunk+55, 3)
	fit := func(p int) *GMM {
		m, err := FitGMMInit(xs, []float64{10, 40}, GMMConfig{Parallelism: p})
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", p, err)
		}
		return m
	}
	serial := fit(1)
	for _, p := range []int{0, 3, 8} {
		got := fit(p)
		if !reflect.DeepEqual(got.Components, serial.Components) ||
			got.LogLikelihood != serial.LogLikelihood {
			t.Fatalf("Parallelism=%d: fit differs from serial", p)
		}
	}
}

// TestRespIntoMatchesResponsibilities pins the no-allocation path to the
// allocating one.
func TestRespIntoMatchesResponsibilities(t *testing.T) {
	xs := syntheticMixture(500, 21)
	m, err := FitGMM(xs, 2, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, m.K())
	for _, x := range []float64{-3, 0, 11, 25.5, 42, 1e6} {
		want := m.Responsibilities(x)
		m.RespInto(x, scratch)
		if !reflect.DeepEqual(scratch, want) {
			t.Fatalf("RespInto(%v) = %v, want %v", x, scratch, want)
		}
		wc, wp := m.Predict(x)
		gc, gp := m.PredictScratch(x, scratch)
		if wc != gc || wp != gp {
			t.Fatalf("PredictScratch(%v) = (%d,%v), want (%d,%v)", x, gc, gp, wc, wp)
		}
	}
}

// TestRunEMNoPerIterationAllocs pins the buffer-reuse property: beyond the
// fixed setup buffers, EM iterations must not allocate on the serial path.
func TestRunEMNoPerIterationAllocs(t *testing.T) {
	xs := syntheticMixture(emChunk/2, 5)
	cfg := GMMConfig{MaxIter: 40, Tol: math.SmallestNonzeroFloat64, Parallelism: 1}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FitGMM(xs, 2, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Setup allocates O(10) buffers (resp, partials, k-means scratch, the
	// model). 40 iterations of the old implementation would not fit under
	// this bound if any per-iteration allocation crept back in.
	if allocs > 40 {
		t.Errorf("FitGMM allocations per fit = %v, want setup-only (<= 40)", allocs)
	}
}
