package core

import (
	"fmt"

	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// FitJoint is the one-stage alternative the two-stage BST design is
// evaluated against: a single bivariate (upload, download) GMM with one
// component per plan, seeded at the advertised rate pairs. It treats both
// axes symmetrically — which is exactly what the paper argues against,
// because download noise then drags assignments sideways. Exposed for the
// ablation benches.
func FitJoint(samples []Sample, cat *plans.Catalog, cfg Config) (*Result, error) {
	if len(samples) < 2*len(cat.Plans) {
		return nil, fmt.Errorf("%w: %d samples for %d plans", ErrTooFewSamples, len(samples), len(cat.Plans))
	}
	pts := make([]stats.Point2, len(samples))
	for i, s := range samples {
		pts[i] = stats.Point2{X: s.Upload, Y: s.Download}
	}
	init := make([]stats.Point2, len(cat.Plans))
	for i, p := range cat.Plans {
		init[i] = stats.Point2{X: float64(p.Upload), Y: float64(p.Download)}
	}
	m, err := stats.FitGMM2D(pts, init, cfg.resolve())
	if err != nil {
		return nil, fmt.Errorf("core: joint GMM: %w", err)
	}

	// Map each fitted component to the plan whose advertised pair is
	// nearest in relative terms.
	compPlan := make([]int, len(m.Components))
	for c, comp := range m.Components {
		best, bestD := 0, -1.0
		for pi, p := range cat.Plans {
			du := rel(comp.MeanX, float64(p.Upload))
			dd := rel(comp.MeanY, float64(p.Download))
			d := du*du + dd*dd
			if bestD < 0 || d < bestD {
				best, bestD = pi+1, d
			}
		}
		compPlan[c] = best
	}

	tiers := cat.UploadTiers()
	res := &Result{Catalog: cat, Assignments: make([]Assignment, len(samples))}
	for i, s := range samples {
		c, p := m.Predict(s.Upload, s.Download)
		tier := compPlan[c]
		res.Assignments[i] = Assignment{
			UploadTier: uploadGroupOf(tiers, tier),
			Tier:       tier,
			Confidence: p,
		}
	}
	return res, nil
}

func rel(got, want float64) float64 {
	if want == 0 {
		return got
	}
	return (got - want) / want
}
