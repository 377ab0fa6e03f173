package core

import (
	"errors"
	"math"
	"testing"

	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// synthTiered draws n samples from a city's catalog with wired-like noise:
// uploads near the offered rate, downloads near (or below) the offered
// download. Returns samples and true 1-based tiers.
func synthTiered(cat *plans.Catalog, n int, seed int64, tierWeights []float64) ([]Sample, []int) {
	rng := stats.NewRNG(seed)
	samples := make([]Sample, n)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		ti := rng.Categorical(tierWeights)
		p := cat.Plans[ti]
		up := float64(p.Upload) * rng.TruncNormal(1.1, 0.08, 0.8, 1.3)
		down := float64(p.Download) * rng.TruncNormal(1.05, 0.12, 0.5, 1.3)
		samples[i] = Sample{Download: down, Upload: up}
		truth[i] = ti + 1
	}
	return samples, truth
}

func TestFitRecoversWiredTiers(t *testing.T) {
	cat := plans.CityA()
	weights := []float64{0, 0.3, 0.25, 0.16, 0.1, 0.19} // MBA-like: no tier 1
	samples, truth := synthTiered(cat, 4000, 1, weights)
	res, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(res, truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ev.UploadAccuracy(); acc < 0.96 {
		t.Errorf("upload accuracy = %v, want >= 0.96 (the paper's Table 2 bar)", acc)
	}
	if acc := ev.TierAccuracy(); acc < 0.9 {
		t.Errorf("tier accuracy = %v, want >= 0.9 on clean wired data", acc)
	}
}

func TestFitUploadClusterMeansNearOffered(t *testing.T) {
	cat := plans.CityA()
	weights := []float64{0.2, 0.2, 0.1, 0.15, 0.15, 0.2}
	samples, _ := synthTiered(cat, 5000, 2, weights)
	res, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	summary := res.UploadClusterSummary()
	if len(summary) != 4 {
		t.Fatalf("summary rows = %d", len(summary))
	}
	offered := []float64{5, 10, 15, 35}
	total := 0
	for i, row := range summary {
		if row.MeanMbps == 0 {
			t.Errorf("tier %s got no cluster", row.Label)
			continue
		}
		rel := math.Abs(row.MeanMbps-offered[i]*1.1) / offered[i]
		if rel > 0.25 {
			t.Errorf("tier %s mean %v too far from offered %v", row.Label, row.MeanMbps, offered[i])
		}
		total += row.Measurements
	}
	if total != len(samples) {
		t.Errorf("tier measurement counts sum to %d, want %d", total, len(samples))
	}
}

func TestFitOffCatalogCluster(t *testing.T) {
	cat := plans.CityA()
	rng := stats.NewRNG(3)
	var samples []Sample
	var truth []int
	// 85% on-catalog across tiers, 15% legacy ~1 Mbps upload lines.
	on, _ := synthTiered(cat, 3400, 4, []float64{0.3, 0.2, 0.1, 0.15, 0.1, 0.15})
	onTruth := make([]int, len(on))
	for i := range on {
		onTruth[i] = 0 // recomputed below
	}
	_ = onTruth
	s2, t2 := synthTiered(cat, 3400, 4, []float64{0.3, 0.2, 0.1, 0.15, 0.1, 0.15})
	samples = append(samples, s2...)
	truth = append(truth, t2...)
	for i := 0; i < 600; i++ {
		samples = append(samples, Sample{
			Download: rng.Uniform(5, 15),
			Upload:   rng.TruncNormal(1, 0.15, 0.5, 1.6),
		})
		truth = append(truth, 0)
	}
	res, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The off-catalog upload cluster must be detected and not mapped to
	// any tier.
	sawOff := false
	for _, ti := range res.Upload.ClusterTier {
		if ti == -1 {
			sawOff = true
		}
	}
	if !sawOff {
		t.Fatal("no off-catalog upload cluster detected (Fig 6's ~1 Mbps cluster)")
	}
	ev, err := Evaluate(res, truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc := ev.PerUploadTier["off-catalog"].Value(); acc < 0.9 {
		t.Errorf("off-catalog rejection accuracy = %v", acc)
	}
	if acc := ev.UploadAccuracy(); acc < 0.9 {
		t.Errorf("overall upload accuracy with off-catalog = %v", acc)
	}
}

func TestFitTooFewSamples(t *testing.T) {
	_, err := Fit([]Sample{{10, 5}}, plans.CityA(), Config{})
	if !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("err = %v, want ErrTooFewSamples", err)
	}
}

func TestFitAssignmentsComplete(t *testing.T) {
	cat := plans.CityB()
	samples, _ := synthTiered(cat, 2000, 5, []float64{0.3, 0.2, 0.15, 0.15, 0.1, 0.1})
	res, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != len(samples) {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	for i, a := range res.Assignments {
		if a.UploadTier >= 0 && (a.Tier < 1 || a.Tier > len(cat.Plans)) {
			t.Fatalf("sample %d: upload tier %d but plan tier %d", i, a.UploadTier, a.Tier)
		}
		if a.Confidence < 0 || a.Confidence > 1+1e-9 {
			t.Fatalf("confidence = %v", a.Confidence)
		}
		if a.UploadTier >= 0 {
			group := cat.UploadTiers()[a.UploadTier]
			if a.Tier < group.FirstTier || a.Tier > group.LastTier {
				t.Fatalf("sample %d: tier %d outside group %s", i, a.Tier, group.Label())
			}
		}
	}
	counts := res.TierCounts()
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != len(samples) {
		t.Errorf("TierCounts sum = %d", sum)
	}
}

func TestPlanByCeilingRule(t *testing.T) {
	// Reproduce the paper's Tier 1-3 mapping exactly: clusters at 8.04
	// and 27.14 -> Tier 1; 57.85 and 115.65 -> Tier 2; 214.01 -> Tier 3.
	tier := plans.CityA().UploadTiers()[0]
	cases := []struct {
		mean float64
		want int
	}{
		{8.04, 1}, {27.14, 1}, {57.85, 2}, {115.65, 2}, {214.01, 3},
		{500, 3}, // above every ceiling -> fastest member plan
	}
	for _, c := range cases {
		if got := planByCeiling(c.mean, tier); got != c.want {
			t.Errorf("planByCeiling(%v) = %d, want %d", c.mean, got, c.want)
		}
	}
}

func TestMatchUploadClusters(t *testing.T) {
	tiers := plans.CityA().UploadTiers()
	m := &stats.GMM{Components: []stats.Component{
		{Mean: 1.0, Weight: 0.1, Variance: 0.1},  // off catalog
		{Mean: 5.3, Weight: 0.4, Variance: 0.2},  // tier group 0 (5)
		{Mean: 11.2, Weight: 0.2, Variance: 0.3}, // group 1 (10)
		{Mean: 17.0, Weight: 0.1, Variance: 0.4}, // group 2 (15)
		{Mean: 39.9, Weight: 0.2, Variance: 1.0}, // group 3 (35)
	}}
	got := matchUploadClusters(m, tiers)
	want := []int{-1, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("component %d -> %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFitDeterminism(t *testing.T) {
	cat := plans.CityA()
	samples, _ := synthTiered(cat, 1500, 6, []float64{0.3, 0.2, 0.1, 0.15, 0.1, 0.15})
	a, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("Fit not deterministic")
		}
	}
}

func TestFitJointWorksOnCleanData(t *testing.T) {
	cat := plans.CityA()
	samples, truth := synthTiered(cat, 3000, 31, []float64{0.2, 0.2, 0.15, 0.15, 0.15, 0.15})
	res, err := FitJoint(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(res, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Clean, wired-like data: the joint model should do well too.
	if acc := ev.TierAccuracy(); acc < 0.85 {
		t.Errorf("joint tier accuracy on clean data = %v", acc)
	}
}

func TestTwoStageBeatsJointOnNoisyDownloads(t *testing.T) {
	// The paper's core design argument: when downloads are crushed by
	// local factors (WiFi, device) but uploads survive, the upload-first
	// two-stage pipeline keeps its accuracy while a joint fit is dragged
	// sideways by the download axis.
	cat := plans.CityA()
	rng := stats.NewRNG(32)
	n := 4000
	samples := make([]Sample, n)
	truth := make([]int, n)
	weights := []float64{0.2, 0.2, 0.15, 0.15, 0.15, 0.15}
	for i := 0; i < n; i++ {
		ti := rng.Categorical(weights)
		p := cat.Plans[ti]
		up := float64(p.Upload) * rng.TruncNormal(1.1, 0.08, 0.8, 1.3)
		down := float64(p.Download) * rng.TruncNormal(1.05, 0.1, 0.6, 1.3)
		// Half the tests hit a local bottleneck that caps downloads
		// hard, independent of tier.
		if rng.Bool(0.5) {
			cap_ := rng.Uniform(10, 180)
			if down > cap_ {
				down = cap_
			}
		}
		samples[i] = Sample{Download: down, Upload: up}
		truth[i] = ti + 1
	}
	two, err := Fit(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := FitJoint(samples, cat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	evTwo, err := Evaluate(two, truth)
	if err != nil {
		t.Fatal(err)
	}
	evJoint, err := Evaluate(joint, truth)
	if err != nil {
		t.Fatal(err)
	}
	if evTwo.UploadAccuracy() <= evJoint.UploadAccuracy() {
		t.Errorf("two-stage upload accuracy %v should beat joint %v on noisy downloads",
			evTwo.UploadAccuracy(), evJoint.UploadAccuracy())
	}
	if evTwo.UploadAccuracy() < 0.9 {
		t.Errorf("two-stage upload accuracy %v collapsed under download noise", evTwo.UploadAccuracy())
	}
}

func TestFitJointTooFew(t *testing.T) {
	if _, err := FitJoint([]Sample{{10, 5}}, plans.CityA(), Config{}); err == nil {
		t.Error("too few samples should error")
	}
}

func TestFitPropertyRandomTierMixes(t *testing.T) {
	// Property: for any tier mix over clean wired-like data, BST's
	// stage-1 accuracy stays above the paper's bar.
	rng := stats.NewRNG(77)
	cat := plans.CityA()
	for trial := 0; trial < 6; trial++ {
		weights := make([]float64, len(cat.Plans))
		for i := range weights {
			weights[i] = rng.Uniform(0.05, 1)
		}
		samples, truth := synthTiered(cat, 2500, int64(100+trial), weights)
		res, err := Fit(samples, cat, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(res, truth)
		if err != nil {
			t.Fatal(err)
		}
		if acc := ev.UploadAccuracy(); acc < 0.96 {
			t.Errorf("trial %d (weights %v): upload accuracy %v", trial, weights, acc)
		}
	}
}
