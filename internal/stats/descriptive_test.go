package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
	// Sample variance uses n-1.
	if got := SampleVariance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 32.0/7.0)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Quantile interp = %v, want 3", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v", got)
	}
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("Quantile singleton = %v", got)
	}
}

func TestQuantileUnsortedInputUnchanged(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	_ = Quantile(xs, 0.5)
	want := []float64{5, 1, 4, 2, 3}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatal("Quantile mutated its input")
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		q1 = clamp01(q1)
		q2 = clamp01(q2)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitize(raw []float64) []float64 {
	var out []float64
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, math.Mod(v, 1e6))
	}
	return out
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) {
		return 0.5
	}
	return math.Abs(math.Mod(v, 1))
}

func TestConsistencyFactor(t *testing.T) {
	// A constant sample is perfectly consistent: mean == p95.
	if got := ConsistencyFactor([]float64{10, 10, 10, 10, 10}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("ConsistencyFactor constant = %v, want 1", got)
	}
	// High variability: mean well below p95.
	varied := []float64{1, 1, 1, 1, 100}
	got := ConsistencyFactor(varied)
	if got >= 0.5 {
		t.Errorf("ConsistencyFactor varied = %v, want < 0.5", got)
	}
	if ConsistencyFactor(nil) != 0 {
		t.Error("ConsistencyFactor(nil) != 0")
	}
	if ConsistencyFactor([]float64{0, 0}) != 0 {
		t.Error("ConsistencyFactor all-zero != 0")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("ECDF.At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 {
		t.Errorf("Len = %d", e.Len())
	}
	if got := e.Quantile(0.5); !almostEqual(got, 2, 1e-12) {
		t.Errorf("ECDF.Quantile(0.5) = %v", got)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := e.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points len = %d", len(pts))
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Errorf("Points not monotone at %d", i)
		}
	}
	if got := NewECDF(nil).Points(5); got != nil {
		t.Error("empty ECDF should produce nil points")
	}
}

// TestECDFPointsSmall covers the sizes where Points once divided by zero:
// a single requested point, or a single observation.
func TestECDFPointsSmall(t *testing.T) {
	for _, m := range []int{1, 2, 5} {
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = float64(m - i)
		}
		e := NewECDF(xs)
		for _, n := range []int{0, 1, 2, m, m + 1} {
			pts := e.Points(n)
			want := n
			if n <= 0 || n > m {
				want = m
			}
			if len(pts) != want {
				t.Fatalf("m=%d n=%d: %d points, want %d", m, n, len(pts), want)
			}
			if last := pts[len(pts)-1]; last.X != float64(m) || last.Y != 1 {
				t.Errorf("m=%d n=%d: last point %+v, want rank %d at (%d, 1)", m, n, last, m, m)
			}
			for _, p := range pts {
				if p.Y <= 0 || p.Y > 1 {
					t.Errorf("m=%d n=%d: Y = %v outside (0, 1]", m, n, p.Y)
				}
			}
		}
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		e := NewECDF(xs)
		return e.At(a) <= e.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	edges, counts := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if len(edges) != 6 || len(counts) != 5 {
		t.Fatalf("edges/counts len = %d/%d", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 {
		t.Errorf("histogram total = %d, want 10", total)
	}
	fr := NormalizeCounts(counts)
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("normalized counts sum = %v", sum)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	if e, c := Histogram(nil, 5); e != nil || c != nil {
		t.Error("Histogram(nil) should be nil")
	}
	if e, c := Histogram([]float64{1, 2}, 0); e != nil || c != nil {
		t.Error("Histogram with 0 bins should be nil")
	}
	// Degenerate constant sample must not divide by zero.
	_, counts := Histogram([]float64{5, 5, 5}, 3)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("constant-sample histogram total = %d", total)
	}
	if got := NormalizeCounts([]int{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Error("NormalizeCounts all-zero should be zeros")
	}
}
