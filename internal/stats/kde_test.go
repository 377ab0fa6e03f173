package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKDEIntegratesToOne(t *testing.T) {
	g := NewRNG(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = g.Normal(10, 2)
	}
	k := NewKDE(xs, Silverman)
	// Trapezoidal integration over a wide grid.
	grid := k.Grid(2000)
	integral := 0.0
	for i := 1; i < len(grid); i++ {
		dx := grid[i].X - grid[i-1].X
		integral += 0.5 * (grid[i].Y + grid[i-1].Y) * dx
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("KDE integral = %v, want ~1", integral)
	}
}

func TestKDEPeakNearMode(t *testing.T) {
	g := NewRNG(2)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = g.Normal(5, 1)
	}
	k := NewKDE(xs, Silverman)
	peaks := k.Peaks(512, 0.1)
	if len(peaks) != 1 {
		t.Fatalf("unimodal sample produced %d peaks", len(peaks))
	}
	if math.Abs(peaks[0].X-5) > 0.5 {
		t.Errorf("peak at %v, want ~5", peaks[0].X)
	}
}

func TestKDEFindsMixturePeaks(t *testing.T) {
	// Mimics the upload-speed mixture of ISP-A: well-separated tiers.
	spec := MixtureSpec{
		{Weight: 0.4, Mean: 5, Variance: 0.25},
		{Weight: 0.2, Mean: 11, Variance: 0.25},
		{Weight: 0.2, Mean: 17, Variance: 0.36},
		{Weight: 0.2, Mean: 39, Variance: 1.0},
	}
	xs := spec.Sample(NewRNG(3), 4000)
	k := NewKDE(xs, Silverman)
	peaks := k.Peaks(1024, 0.02)
	if len(peaks) != 4 {
		t.Fatalf("expected 4 peaks, got %d: %+v", len(peaks), peaks)
	}
	wants := []float64{5, 11, 17, 39}
	for i, w := range wants {
		if math.Abs(peaks[i].X-w) > 1.5 {
			t.Errorf("peak %d at %v, want ~%v", i, peaks[i].X, w)
		}
	}
}

func TestKDEBandwidthRules(t *testing.T) {
	g := NewRNG(4)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = g.Normal(0, 1)
	}
	ks := NewKDE(xs, Silverman)
	kc := NewKDE(xs, Scott)
	if ks.Bandwidth() <= 0 || kc.Bandwidth() <= 0 {
		t.Fatal("non-positive bandwidth")
	}
	// Scott's constant (1.06*sigma) exceeds Silverman's (0.9*min(sigma, iqr/1.34)).
	if ks.Bandwidth() >= kc.Bandwidth() {
		t.Errorf("silverman %v should be < scott %v here", ks.Bandwidth(), kc.Bandwidth())
	}
}

func TestKDEEmptyAndDegenerate(t *testing.T) {
	var empty *KDE = NewKDE(nil, Silverman)
	if empty.At(3) != 0 {
		t.Error("empty KDE density should be 0")
	}
	if empty.Grid(10) != nil {
		t.Error("empty KDE grid should be nil")
	}
	// Constant sample: density concentrates near the value.
	k := NewKDE([]float64{7, 7, 7}, Silverman)
	if k.At(7) <= k.At(8) {
		t.Error("density at the atom should dominate")
	}
}

// TestKDESketchBacked checks the sketch-backed KDE: its count is the
// sketch's, its grid spans the occupied bin centers padded by 3 bandwidths,
// it evaluates over the bin masses whatever FastFit says, and an empty
// sketch yields a zero density and no grid.
func TestKDESketchBacked(t *testing.T) {
	empty, err := NewSketch(0, 100, 101)
	if err != nil {
		t.Fatal(err)
	}
	if k := NewKDESketch(empty, Silverman); k.Len() != 0 || k.At(3) != 0 || k.Grid(10) != nil {
		t.Error("empty sketch KDE should have no observations, zero density and no grid")
	}

	xs := syntheticMixture(5000, 3)
	s, err := SketchFromSamples(xs, -20, 100, 1201)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKDESketch(s, Silverman)
	if k.Len() != len(xs) || k.Bandwidth() != s.bandwidth(Silverman) {
		t.Fatalf("Len %d, Bandwidth %v", k.Len(), k.Bandwidth())
	}
	lo, hi, _ := s.massBounds()
	grid := k.Grid(257)
	if len(grid) != 257 || grid[0].X != s.center(lo)-3*k.Bandwidth() || grid[256].X != s.center(hi)+3*k.Bandwidth() {
		t.Fatalf("grid spans [%v, %v], want occupied bins [%v, %v] padded by 3h",
			grid[0].X, grid[len(grid)-1].X, s.center(lo), s.center(hi))
	}
	k.FastFit = false
	for _, x := range []float64{0, 11, 42, 90} {
		if got, want := k.At(x), s.kdeAt(x, k.Bandwidth()); got != want {
			t.Errorf("At(%v) = %v, want the binned density %v", x, got, want)
		}
	}
}

func TestKDEDensityNonNegativeProperty(t *testing.T) {
	f := func(raw []float64, at float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 || math.IsNaN(at) || math.IsInf(at, 0) {
			return true
		}
		k := NewKDE(xs, Silverman)
		return k.At(math.Mod(at, 1e6)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeaksOfPlateau(t *testing.T) {
	grid := []Point{{0, 0}, {1, 1}, {2, 1}, {3, 1}, {4, 0}}
	peaks := PeaksOf(grid, 0)
	if len(peaks) != 1 {
		t.Fatalf("plateau should yield 1 peak, got %d", len(peaks))
	}
	if math.Abs(peaks[0].X-1.5) > 1.0 {
		t.Errorf("plateau peak at %v", peaks[0].X)
	}
}

func TestPeaksOfShortGrid(t *testing.T) {
	if PeaksOf([]Point{{0, 1}, {1, 2}}, 0) != nil {
		t.Error("short grid should yield no peaks")
	}
}
