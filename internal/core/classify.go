package core

import (
	"sync"

	"speedctx/internal/plans"
)

// Classifier is the single-sample ingest fast path over a fitted Result:
// it classifies one <download, upload> tuple against the fitted stage-1 and
// stage-2 models — no refit, no per-call allocation — producing exactly the
// Assignment that Fit would have recorded had the sample been part of the
// batch (bit-identical tiers, upload tiers and confidences; the property
// tests in classify_test.go pin this against both the exact and the -fast
// fit paths).
//
// A Classifier is safe for concurrent use: the fitted models are read-only
// and the per-call posterior scratch comes from a sync.Pool, so the ingest
// server can classify on every request goroutine without locking.
type Classifier struct {
	res   *Result
	tiers []plans.UploadTier
	pool  sync.Pool // *[]float64, len = max component count across models
}

// NewClassifier wraps a fitted Result for single-sample classification.
func NewClassifier(res *Result) *Classifier {
	maxK := res.Upload.Model.K()
	for i := range res.Downloads {
		if m := res.Downloads[i].Model; m != nil && m.K() > maxK {
			maxK = m.K()
		}
	}
	cl := &Classifier{
		res:   res,
		tiers: res.Catalog.UploadTiers(),
	}
	cl.pool.New = func() any {
		s := make([]float64, maxK)
		return &s
	}
	return cl
}

// Result returns the fitted Result the classifier serves.
func (cl *Classifier) Result() *Result { return cl.res }

// ClassifyOne classifies one <download, upload> tuple against the fitted
// models. The returned Assignment is bit-identical to the one Fit computes
// for the same sample under the same models: both run the same two
// assignment steps.
func (cl *Classifier) ClassifyOne(download, upload float64) Assignment {
	sp := cl.pool.Get().(*[]float64)
	a := cl.classify(download, upload, *sp)
	cl.pool.Put(sp)
	return a
}

// classify runs Fit's per-sample assignment steps: the stage-1 upload
// posterior picks the upload tier, then the tier's stage-2 model (or the
// headroom fallback when the tier was too sparse to cluster) picks the plan.
func (cl *Classifier) classify(download, upload float64, scratch []float64) Assignment {
	a := cl.res.Upload.assign(upload, scratch)
	if ti := a.UploadTier; ti >= 0 {
		cl.res.Downloads[ti].assign(&a, download, cl.tiers[ti], scratch)
	}
	return a
}
