package experiments

import (
	"fmt"

	"speedctx/internal/analysis"
	"speedctx/internal/challenge"
	"speedctx/internal/core"
	"speedctx/internal/device"
	"speedctx/internal/netsim"
	"speedctx/internal/opendata"
	"speedctx/internal/population"
	"speedctx/internal/report"
	"speedctx/internal/stats"
	"speedctx/internal/tilequery"
)

// ChallengeReport runs the §8 challenge-evidence screen over a city's Ookla
// dataset.
func (s *Suite) ChallengeReport(cityID string) (*challenge.Report, error) {
	b, err := s.City(cityID)
	if err != nil {
		return nil, err
	}
	a, err := b.OoklaAnalysis()
	if err != nil {
		return nil, err
	}
	return challenge.BuildReport(b.Ookla, a.Result, b.Catalog, challenge.DefaultPolicy())
}

// ChallengeTable renders the challenge screen as a table.
func (s *Suite) ChallengeTable(cityID string) (*report.Table, error) {
	rep, err := s.ChallengeReport(cityID)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: fmt.Sprintf("Challenge evidence screen, City %s (threshold %.0f%% of plan, %d tests)",
			cityID, 100*rep.Policy.FractionOfPlan, rep.Total),
		Headers: []string{"Verdict", "Tests", "Share"},
	}
	for _, v := range challenge.Verdicts() {
		share := 0.0
		if rep.Total > 0 {
			share = 100 * float64(rep.Counts[v]) / float64(rep.Total)
		}
		t.AddRow(v.String(), rep.Counts[v], fmt.Sprintf("%.1f%%", share))
	}
	return t, nil
}

// AggregationLoss quantifies the paper's §8 argument that context "must be
// coupled to measurement results": BST recovers subscription structure from
// individual tests, but the publicly released tile aggregates (Ookla open
// data) average away the upload clusters, and tier recovery collapses.
func (s *Suite) AggregationLoss() (*report.Table, error) {
	b, err := s.City("A")
	if err != nil {
		return nil, err
	}
	// Individual-test baseline: stage-1 accuracy against truth.
	samples := b.OoklaSampleView()
	res, err := core.Fit(samples, b.Catalog, b.coreCfg())
	if err != nil {
		return nil, err
	}
	ev, err := core.Evaluate(res, b.OoklaCols().TruthTier)
	if err != nil {
		return nil, err
	}

	// Tile aggregates: each tile's mean <down, up> becomes one sample,
	// scored against the tile's majority true tier.
	tiles, err := s.aggregationTiles("A")
	if err != nil {
		return nil, err
	}
	tileSamples := make([]core.Sample, len(tiles))
	majority := make([]int, len(tiles))
	for i, t := range tiles {
		tileSamples[i] = core.Sample{Download: float64(t.AvgDKbps) / 1000, Upload: float64(t.AvgUKbps) / 1000}
		majority[i] = majorityTier(t.TierCounts)
	}
	tileRes, err := core.Fit(tileSamples, b.Catalog, b.coreCfg())
	if err != nil {
		return nil, err
	}
	tileEv, err := core.Evaluate(tileRes, majority)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Aggregation loss: BST on individual tests vs public tile aggregates (City A)",
		Headers: []string{"Input", "Samples", "Upload-tier accuracy", "Exact-plan accuracy"},
	}
	t.AddRow("individual tests (vs truth)", len(samples),
		fmt.Sprintf("%.1f%%", 100*ev.UploadAccuracy()),
		fmt.Sprintf("%.1f%%", 100*ev.TierAccuracy()))
	t.AddRow("open-data tiles (vs majority tier)", len(tileSamples),
		fmt.Sprintf("%.1f%%", 100*tileEv.UploadAccuracy()),
		fmt.Sprintf("%.1f%%", 100*tileEv.TierAccuracy()))
	return t, nil
}

// aggregationTiles folds a city's Ookla tests into the public tile view
// through the same tilequery fold every other tile surface uses, with the
// ground-truth tier as the tier mix.
func (s *Suite) aggregationTiles(cityID string) ([]opendata.ContextTile, error) {
	b, err := s.City(cityID)
	if err != nil {
		return nil, err
	}
	c := b.OoklaCols()
	rows := &tilequery.Rows{
		UserID:   c.UserID,
		Download: c.Download,
		Upload:   c.Upload,
		Latency:  c.Latency,
		Tier:     c.TruthTier,
	}
	return tilequery.Aggregate(rows, tilequery.Config{City: cityID}, tilequery.Query{})
}

// majorityTier returns the most frequent tier of a tile's mix, breaking
// ties toward the lower tier.
func majorityTier(counts []int) int {
	best := 0
	for tier, n := range counts {
		if n > counts[best] {
			best = tier
		}
	}
	return best
}

// BottleneckCensus diagnoses a sample of simulated test scenarios and
// tabulates which stage binds each one, per platform — quantifying the
// paper's conclusion that "the vast majority of measurements experience
// bottlenecks by home network and device characteristics".
func (s *Suite) BottleneckCensus(cityID string, n int) (*report.Table, error) {
	b, err := s.City(cityID)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 5000
	}
	model := population.OoklaModel(b.Catalog)
	rng := stats.NewRNG(s.Seed + 777)
	type key struct {
		platform device.Platform
		bn       netsim.Bottleneck
	}
	counts := map[key]int{}
	totals := map[device.Platform]int{}
	for i := 0; i < n; i++ {
		sub := model.NewSubscriber(i, rng)
		ts := population.SampleTestTime(rng)
		sc := model.TestScenario(&sub, netsim.VendorOokla, ts, rng)
		d := netsim.Diagnose(sc)
		counts[key{sub.Platform, d.Bottleneck}]++
		totals[sub.Platform]++
	}
	bns := []netsim.Bottleneck{
		netsim.BottleneckAccess, netsim.BottleneckWiFi,
		netsim.BottleneckDevice, netsim.BottleneckMethodology,
	}
	headers := []string{"Platform", "Tests"}
	for _, bn := range bns {
		headers = append(headers, bn.String())
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Bottleneck census, City %s (%d simulated scenarios)", cityID, n),
		Headers: headers,
	}
	for _, p := range device.Platforms() {
		if totals[p] == 0 {
			continue
		}
		row := []interface{}{p.String(), totals[p]}
		for _, bn := range bns {
			row = append(row, fmt.Sprintf("%.1f%%",
				100*float64(counts[key{p, bn}])/float64(totals[p])))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// JointDensity renders the 2-D <upload, download> density of a city's
// Ookla tests — the joint view whose ridge-and-island structure is what the
// two-stage BST design exploits (consistent upload ridges at the offered
// rates, smeared download marginals within each).
func (s *Suite) JointDensity(cityID string) (*report.Heatmap, error) {
	b, err := s.City(cityID)
	if err != nil {
		return nil, err
	}
	pts := make([]stats.Point2, 0, len(b.Ookla))
	for _, r := range b.Ookla {
		// Focus the view on the dense region (uploads < 60 Mbps).
		if r.UploadMbps < 60 {
			pts = append(pts, stats.Point2{X: r.UploadMbps, Y: r.DownloadMbps})
		}
	}
	kde := stats.NewKDE2D(pts)
	xs, ys, vals := kde.Grid(96, 64)
	return &report.Heatmap{
		ID:     "joint-density",
		Title:  fmt.Sprintf("Joint upload x download density, City %s", cityID),
		XLabel: "Upload Speed (Mbps)", YLabel: "Download Speed (Mbps)",
		Xs: xs, Ys: ys, Values: vals,
	}, nil
}

// VendorSignificance extends Figure 13 with inference: per upload tier, the
// Mann-Whitney p-value and effect size, the KS distance, and a bootstrap CI
// for the median gap between Ookla and M-Lab normalized downloads.
func (s *Suite) VendorSignificance() (*report.Table, error) {
	b, err := s.City("A")
	if err != nil {
		return nil, err
	}
	oa, err := b.OoklaAnalysis()
	if err != nil {
		return nil, err
	}
	ma, err := b.MLabAnalysis()
	if err != nil {
		return nil, err
	}
	vts, err := analysis.VendorComparison(oa, ma)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Vendor gap significance (Ookla vs M-Lab normalized download, City A)",
		Headers: []string{"Tier", "Ookla med", "M-Lab med", "MW p", "P(O>M)",
			"KS D", "gap 95% CI"},
	}
	for _, vt := range vts {
		mw, ks := vt.Significance()
		lo, hi := vt.MedianGapCI(0.95, 300, 99)
		t.AddRow(vt.Label, vt.Ookla.Median(), vt.MLab.Median(),
			fmt.Sprintf("%.2g", mw.PValue), fmt.Sprintf("%.2f", mw.CommonLanguageEffect),
			fmt.Sprintf("%.3f", ks.Statistic), fmt.Sprintf("[%.2f, %.2f]", lo, hi))
	}
	return t, nil
}
