package speedctx_test

import (
	"testing"

	"speedctx"
)

func TestCities(t *testing.T) {
	cs := speedctx.Cities()
	if len(cs) != 4 {
		t.Fatalf("cities = %d", len(cs))
	}
	for _, id := range []string{"A", "B", "C", "D"} {
		c, ok := speedctx.City(id)
		if !ok || c.City != id {
			t.Errorf("City(%q) failed", id)
		}
	}
	if _, ok := speedctx.City("Q"); ok {
		t.Error("City(Q) should fail")
	}
}

func TestGenerateCityAndFit(t *testing.T) {
	data, err := speedctx.GenerateCity("B", speedctx.GenerateOptions{
		OoklaTests: 1500, MLabTests: 800, MBARecords: 1200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Ookla) != 1500 {
		t.Errorf("ookla rows = %d", len(data.Ookla))
	}
	if len(data.MLabTests) == 0 || len(data.MLabTests) > len(data.MLabRows) {
		t.Errorf("association: %d tests from %d rows", len(data.MLabTests), len(data.MLabRows))
	}

	samples := make([]speedctx.Sample, len(data.MBA))
	truth := make([]int, len(data.MBA))
	for i, r := range data.MBA {
		samples[i] = speedctx.Sample{Download: r.DownloadMbps, Upload: r.UploadMbps}
		truth[i] = r.Tier
	}
	res, err := speedctx.FitBST(samples, data.Catalog, speedctx.BSTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := speedctx.EvaluateBST(res, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ev.UploadAccuracy() < 0.96 {
		t.Errorf("facade MBA accuracy = %v", ev.UploadAccuracy())
	}
}

func TestGenerateCityUnknown(t *testing.T) {
	if _, err := speedctx.GenerateCity("Z", speedctx.GenerateOptions{}); err == nil {
		t.Error("unknown city should error")
	}
}

func TestGenerateCityDefaults(t *testing.T) {
	data, err := speedctx.GenerateCity("D", speedctx.GenerateOptions{Seed: 5,
		OoklaTests: 600, MLabTests: 500, MBARecords: 500})
	if err != nil {
		t.Fatal(err)
	}
	a, err := speedctx.AnalyzeOokla(data.Catalog, data.Ookla, speedctx.BSTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := speedctx.AnalyzeMLab(data.Catalog, data.MLabTests, speedctx.BSTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vts, err := speedctx.CompareVendors(a, m)
	if err != nil {
		t.Fatal(err)
	}
	// City D has three upload tiers.
	if len(vts) != 3 {
		t.Errorf("vendor tiers = %d", len(vts))
	}
}

func TestFacadeExtensions(t *testing.T) {
	data, err := speedctx.GenerateCity("A", speedctx.GenerateOptions{
		OoklaTests: 1200, MLabTests: 400, MBARecords: 400, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]speedctx.Sample, len(data.Ookla))
	for i, r := range data.Ookla {
		samples[i] = speedctx.Sample{Download: r.DownloadMbps, Upload: r.UploadMbps}
	}
	res, err := speedctx.FitBST(samples, data.Catalog, speedctx.BSTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := speedctx.ScreenChallenge(data.Ookla, res, data.Catalog, speedctx.DefaultChallengePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != len(data.Ookla) {
		t.Errorf("challenge total = %d", rep.Total)
	}
	if rep.Counts[speedctx.VerdictMeetsPlan] == 0 {
		t.Error("no meets-plan verdicts")
	}

	tiles, err := speedctx.AggregateTiles("A", data.Ookla)
	if err != nil {
		t.Fatal(err)
	}
	tests := 0
	for _, tl := range tiles {
		tests += tl.Tests
	}
	if len(tiles) == 0 || tests != len(data.Ookla) {
		t.Fatalf("%d tiles hold %d tests, want %d", len(tiles), tests, len(data.Ookla))
	}

	mw := speedctx.MannWhitney([]float64{1, 2, 3, 4, 5}, []float64{1, 2, 3, 4, 5})
	if mw.PValue < 0.5 {
		t.Errorf("identical-sample MW p = %v", mw.PValue)
	}
	ks := speedctx.KolmogorovSmirnov([]float64{1, 2, 3}, []float64{1, 2, 3})
	if ks.Statistic != 0 {
		t.Errorf("identical-sample KS D = %v", ks.Statistic)
	}
}
