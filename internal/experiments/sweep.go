package experiments

import (
	"fmt"

	"speedctx/internal/core"
	"speedctx/internal/parallel"
	"speedctx/internal/plans"
	"speedctx/internal/report"
	"speedctx/internal/stats"
)

// RobustnessSweep maps the BST methodology's operating envelope: stage-1
// accuracy as a function of upload-speed noise (relative sigma) and the
// share of off-catalog contamination. The paper validates BST at one
// operating point (the MBA panel); this sweep shows how far the approach
// holds as measurement quality degrades — the kind of sensitivity analysis
// a deployment (e.g. the FCC challenge process) would need.
//
// The grid cells are mutually independent — each draws from its own RNG
// seeded by its (sigma, contamination) coordinates, never by visit order —
// so they fan out across parallelism workers (0 = GOMAXPROCS, 1 = serial)
// and are assembled into the table in fixed grid order. The rendered table
// is identical at every setting.
//
// base carries the fit knobs (FastFit/FitCache) each cell's BST
// run inherits; its Parallelism is ignored — cells are the parallel grain.
func RobustnessSweep(seed int64, parallelism int, base core.Config) *report.Table {
	cat := plans.CityA()
	sigmas := []float64{0.05, 0.10, 0.20, 0.30, 0.45}
	contaminations := []float64{0, 0.1, 0.25}
	headers := []string{"Upload noise (rel sigma)"}
	for _, c := range contaminations {
		headers = append(headers, fmt.Sprintf("%.0f%% off-catalog", 100*c))
	}
	t := &report.Table{
		Title:   "BST robustness: stage-1 accuracy vs upload noise and off-catalog contamination (City A plans)",
		Headers: headers,
	}
	weights := []float64{0.25, 0.2, 0.1, 0.15, 0.12, 0.18}
	nc := len(contaminations)
	cells := parallel.Map(parallelism, len(sigmas)*nc, func(cell int) string {
		sigma := sigmas[cell/nc]
		ci := cell % nc
		contamination := contaminations[ci]
		rng := stats.NewRNG(seed + int64(ci) + int64(sigma*1000))
		n := 3000
		samples := make([]core.Sample, 0, n)
		truth := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if rng.Bool(contamination) {
				samples = append(samples, core.Sample{
					Download: rng.Uniform(5, 20),
					Upload:   rng.TruncNormal(1, 0.2, 0.3, 2),
				})
				truth = append(truth, 0)
				continue
			}
			ti := rng.Categorical(weights)
			p := cat.Plans[ti]
			up := float64(p.Upload) * rng.TruncNormal(1.1, sigma, 0.2, 2)
			down := float64(p.Download) * rng.TruncNormal(0.9, 0.25, 0.1, 1.3)
			samples = append(samples, core.Sample{Download: down, Upload: up})
			truth = append(truth, ti+1)
		}
		// The cells themselves are the parallel grain; keep each fit
		// serial rather than oversubscribing the pool with nested
		// workers.
		cfg := base
		cfg.Parallelism = 1
		res, err := core.Fit(samples, cat, cfg)
		if err != nil {
			return "error"
		}
		ev, err := core.Evaluate(res, truth)
		if err != nil {
			return "error"
		}
		return fmt.Sprintf("%.1f%%", 100*ev.UploadAccuracy())
	})
	for si := range sigmas {
		row := []interface{}{fmt.Sprintf("%.2f", sigmas[si])}
		for ci := 0; ci < nc; ci++ {
			row = append(row, cells[si*nc+ci])
		}
		t.AddRow(row...)
	}
	return t
}
