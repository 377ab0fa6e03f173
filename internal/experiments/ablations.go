package experiments

import (
	"fmt"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/report"
	"speedctx/internal/stats"
	"speedctx/internal/tcpmodel"
	"speedctx/internal/units"
)

// AblationGMMvsKMeans compares BST's GMM-EM stage-1 clustering against a
// plain k-means assignment on the MBA panel — the design choice §4.2
// argues for (GMM models per-cluster variance and weight).
func (s *Suite) AblationGMMvsKMeans() (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation: stage-1 clustering engine (MBA upload accuracy)",
		Headers: []string{"State", "GMM-EM", "k-means"},
	}
	for _, id := range CityIDs() {
		b, err := s.City(id)
		if err != nil {
			return nil, err
		}
		_, ev, err := b.MBAFit()
		if err != nil {
			return nil, err
		}

		// k-means baseline: cluster uploads into the offered-rate
		// count, map centers to nearest offered rate, score.
		tiers := b.Catalog.UploadTiers()
		ups := make([]float64, len(b.MBA))
		for i, r := range b.MBA {
			ups[i] = r.UploadMbps
		}
		centers, assign := stats.KMeans1D(ups, len(tiers), 100)
		centerTier := make([]int, len(centers))
		for c, ctr := range centers {
			best, bestD := -1, 0.0
			for ti, tier := range tiers {
				d := ctr - float64(tier.Upload)
				if d < 0 {
					d = -d
				}
				if best == -1 || d < bestD {
					best, bestD = ti, d
				}
			}
			centerTier[c] = best
		}
		correct := 0
		for i, r := range b.MBA {
			trueGroup := -1
			for ti, tier := range tiers {
				if r.Tier >= tier.FirstTier && r.Tier <= tier.LastTier {
					trueGroup = ti
				}
			}
			if centerTier[assign[i]] == trueGroup {
				correct++
			}
		}
		kmAcc := float64(correct) / float64(len(b.MBA))
		t.AddRow(id, fmt.Sprintf("%.2f%%", 100*ev.UploadAccuracy()),
			fmt.Sprintf("%.2f%%", 100*kmAcc))
	}
	return t, nil
}

// AblationUploadFirst contrasts the two-stage upload-first design against
// clustering downloads directly — the paper's core insight that the
// consistent upload dimension must anchor the assignment.
func (s *Suite) AblationUploadFirst() (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation: upload-first (BST) vs joint 2-D GMM vs download-only (exact-plan accuracy, MBA)",
		Headers: []string{"State", "BST (two-stage)", "Joint 2-D GMM", "Download-only"},
	}
	for _, id := range CityIDs() {
		b, err := s.City(id)
		if err != nil {
			return nil, err
		}
		_, ev, err := b.MBAFit()
		if err != nil {
			return nil, err
		}

		// Joint one-stage baseline: a bivariate GMM over
		// <upload, download> with one component per plan.
		samples := make([]core.Sample, len(b.MBA))
		truth := make([]int, len(b.MBA))
		for i, r := range b.MBA {
			samples[i] = core.Sample{Download: r.DownloadMbps, Upload: r.UploadMbps}
			truth[i] = r.Tier
		}
		jointAcc := 0.0
		if jres, err := core.FitJoint(samples, b.Catalog, b.coreCfg()); err == nil {
			if jev, err := core.Evaluate(jres, truth); err == nil {
				jointAcc = jev.TierAccuracy()
			}
		}

		// Download-only baseline: assign each record to the plan
		// whose headroom ceiling covers the measured download,
		// ignoring upload entirely.
		correct := 0
		for _, r := range b.MBA {
			assigned := 0
			for ti, p := range b.Catalog.Plans {
				if r.DownloadMbps <= float64(p.Download)*core.DownloadHeadroom {
					assigned = ti + 1
					break
				}
			}
			if assigned == 0 {
				assigned = len(b.Catalog.Plans)
			}
			if assigned == r.Tier {
				correct++
			}
		}
		dlAcc := float64(correct) / float64(len(b.MBA))
		t.AddRow(id, fmt.Sprintf("%.2f%%", 100*ev.TierAccuracy()),
			fmt.Sprintf("%.2f%%", 100*jointAcc),
			fmt.Sprintf("%.2f%%", 100*dlAcc))
	}
	return t, nil
}

// AblationBandwidthRule compares Silverman against Scott KDE bandwidths for
// stage-1 peak counting on the MBA panel.
func (s *Suite) AblationBandwidthRule() (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation: KDE bandwidth rule (stage-1 peaks found vs offered upload rates)",
		Headers: []string{"State", "Offered rates", "Silverman peaks", "Scott peaks"},
	}
	for _, id := range CityIDs() {
		b, err := s.City(id)
		if err != nil {
			return nil, err
		}
		ups := make([]float64, len(b.MBA))
		for i, r := range b.MBA {
			ups[i] = r.UploadMbps
		}
		sil := len(stats.NewKDE(ups, stats.Silverman).Peaks(core.KDEGridPoints, core.MinRelPeak))
		sco := len(stats.NewKDE(ups, stats.Scott).Peaks(core.KDEGridPoints, core.MinRelPeak))
		t.AddRow(id, len(b.Catalog.UploadTiers()), sil, sco)
	}
	return t, nil
}

// TCPModelValidation cross-checks the discrete AIMD simulator against the
// analytic Mathis throughput on loss-limited paths.
func TCPModelValidation() *report.Table {
	t := &report.Table{
		Title:   "TCP model validation: discrete AIMD sim vs analytic Mathis (single flow, loss-limited)",
		Headers: []string{"Loss rate", "RTT", "Mathis (Mbps)", "Sim (Mbps)", "Ratio"},
	}
	rng := stats.NewRNG(7)
	for _, p := range []float64{1e-3, 3e-4, 1e-4, 3e-5} {
		for _, rtt := range []time.Duration{10 * time.Millisecond, 40 * time.Millisecond} {
			analytic := float64(tcpmodel.MathisThroughput(tcpmodel.DefaultMSS, rtt, p))
			sim := tcpmodel.Simulate(tcpmodel.Path{
				Capacity: 100000, RTT: rtt, LossRate: p,
			}, tcpmodel.TestSpec{
				Connections: 1, Duration: 60 * time.Second, WarmupDiscard: 5 * time.Second,
			}, rng)
			t.AddRow(fmt.Sprintf("%.0e", p), rtt.String(),
				analytic, float64(sim.Goodput), float64(sim.Goodput)/analytic)
		}
	}
	return t
}

// VendorGapSweep sweeps plan rates and reports the simulated Ookla/NDT
// median goodput ratio — the mechanism panel behind Figure 13.
func VendorGapSweep() *report.Table {
	t := &report.Table{
		Title:   "Vendor methodology gap vs provisioned rate (simulated, wired path)",
		Headers: []string{"Capacity (Mbps)", "Ookla (Mbps)", "NDT (Mbps)", "Ookla/NDT"},
	}
	for _, capMbps := range []float64{25, 100, 200, 400, 800, 1200} {
		var ookla, ndt []float64
		for trial := 0; trial < 21; trial++ {
			rng := stats.NewRNG(int64(1000 + trial))
			path := tcpmodel.Path{
				Capacity: units.Mbps(capMbps), RTT: 25 * time.Millisecond, LossRate: 3e-5,
			}
			ookla = append(ookla, float64(tcpmodel.Simulate(path, tcpmodel.OoklaSpec(), rng).Goodput))
			ndt = append(ndt, float64(tcpmodel.Simulate(path, tcpmodel.NDTSpec(), rng).Goodput))
		}
		mo, mn := stats.Median(ookla), stats.Median(ndt)
		t.AddRow(capMbps, mo, mn, mo/mn)
	}
	return t
}

// RecommendationBBR quantifies the paper's closing recommendation — test
// methodologies should maximize path throughput — by comparing a
// single-connection Reno test, a single-connection BBR-style test, and the
// multi-connection Reno test across provisioned rates.
func RecommendationBBR() *report.Table {
	t := &report.Table{
		Title:   "Recommendation: single-connection BBR closes the methodology gap (median goodput, Mbps)",
		Headers: []string{"Capacity", "1-conn Reno", "1-conn BBR", "8-conn Reno", "BBR/Reno"},
	}
	for _, capMbps := range []float64{100, 400, 800, 1200} {
		var reno, bbr, multi []float64
		for trial := 0; trial < 15; trial++ {
			rng := stats.NewRNG(int64(3000 + trial))
			path := tcpmodel.Path{
				Capacity: units.Mbps(capMbps), RTT: 25 * time.Millisecond, LossRate: 3e-5,
			}
			single := tcpmodel.TestSpec{Connections: 1, Duration: 10 * time.Second}
			reno = append(reno, float64(tcpmodel.Simulate(path, single, rng).Goodput))
			singleBBR := single
			singleBBR.Congestion = tcpmodel.BBR
			bbr = append(bbr, float64(tcpmodel.Simulate(path, singleBBR, rng).Goodput))
			multi = append(multi, float64(tcpmodel.Simulate(path, tcpmodel.OoklaSpec(), rng).Goodput))
		}
		mr, mb, mm := stats.Median(reno), stats.Median(bbr), stats.Median(multi)
		t.AddRow(capMbps, mr, mb, mm, mb/mr)
	}
	return t
}
