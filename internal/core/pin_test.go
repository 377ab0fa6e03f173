package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// resultHash is a SHA-256 over the bits of every field of a Result: the
// stage-1 peaks, model and cluster map, every stage-2 stage, and every
// assignment. Floats enter as math.Float64bits, so a change in the last
// bit of any fitted number changes the hash.
func resultHash(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(x float64) { u(math.Float64bits(x)) }
	i := func(n int) { u(uint64(int64(n))) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	peaks := func(ps []stats.Peak) {
		i(len(ps))
		for _, p := range ps {
			f(p.X)
			f(p.Density)
		}
	}
	model := func(m *stats.GMM) {
		if m == nil {
			i(-1)
			return
		}
		i(m.K())
		for _, c := range m.Components {
			f(c.Weight)
			f(c.Mean)
			f(c.Variance)
		}
		f(m.LogLikelihood)
		i(m.Iterations)
		b(m.Converged)
		f(m.BIC())
	}
	ints := func(xs []int) {
		i(len(xs))
		for _, x := range xs {
			i(x)
		}
	}

	peaks(res.Upload.Peaks)
	model(res.Upload.Model)
	ints(res.Upload.ClusterTier)
	i(len(res.Downloads))
	for _, ds := range res.Downloads {
		i(ds.TierIndex)
		i(ds.SampleCount)
		peaks(ds.Peaks)
		model(ds.Model)
		ints(ds.ComponentPlan)
	}
	i(len(res.Assignments))
	for _, a := range res.Assignments {
		i(a.UploadTier)
		i(a.Tier)
		f(a.Confidence)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedSparseSamples is the exact case's input: City A's tiered sample
// with an off-catalog ~1 Mbps group, thinned so the 35 Mbps upload tier
// keeps only three samples — too few for a stage-2 model, so its samples
// take the headroom fallback.
func pinnedSparseSamples(cat *plans.Catalog) []Sample {
	all := synthWithOffCatalog(cat, 4000, 7)
	out := all[:0:0]
	kept := 0
	for _, s := range all {
		if s.Upload >= 25 {
			if kept == 3 {
				continue
			}
			kept++
		}
		out = append(out, s)
	}
	return out
}

// TestBSTPinned pins the bits of the BST fit on three inputs: the exact
// Fit, the FastFit Fit on a panel large enough for the binned paths to
// run, and FitFromSketches over that fast fit's tier sketches. A pin moves
// only with a change that means to move the method's numbers (a generator
// bump or a deliberate method change, said so in CHANGES.md).
//
// The hashes are recorded on linux/amd64. Other architectures may fuse
// multiply-adds and round differently, so there the test logs the hashes
// and skips only the comparison.
func TestBSTPinned(t *testing.T) {
	const (
		wantExact  = "2e523abd4eea9b22f7b644f244e84df5efab024beca5bbbe3a1c4b1e69bfa20a"
		wantFast   = "8e7d9721827808331a0aa6154bc5d9f127ebf208bebea5308e1f93edacbef058"
		wantSketch = "34901a6467aad68d09b9d08f2764d0d5fad9ad7ac3593d048a16eb65447cea86"
	)

	cat := plans.CityA()
	sparse := pinnedSparseSamples(cat)
	exact, err := Fit(sparse, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	offCatalog := false
	for _, ti := range exact.Upload.ClusterTier {
		offCatalog = offCatalog || ti < 0
	}
	fallback := false
	for _, ds := range exact.Downloads {
		fallback = fallback || (ds.Model == nil && ds.SampleCount > 0)
	}
	if !offCatalog || !fallback {
		t.Fatalf("exact fixture lost a branch: off-catalog cluster %v, headroom fallback %v", offCatalog, fallback)
	}

	samples, _, mcat := mbaSamples(t, 12000)
	fastCfg := Config{FastFit: true}
	fast, err := Fit(samples, mcat, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := SketchesFromResult(fast, samples, SketchSpecFor(mcat, 0))
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := FitFromSketches(ts, mcat, fastCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		res  *Result
		want string
	}{
		{"exact", exact, wantExact},
		{"fast", fast, wantFast},
		{"sketch", sketch, wantSketch},
	} {
		got := resultHash(tc.res)
		if runtime.GOARCH != "amd64" {
			t.Logf("%s: hash %s (pins are recorded on amd64; not compared on %s)", tc.name, got, runtime.GOARCH)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: Result hash %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
