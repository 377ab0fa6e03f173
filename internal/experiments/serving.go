package experiments

import "speedctx/internal/core"

// CityClassifier fits (or reuses the memoized fit of) the city's Ookla
// dataset and wraps it in the single-sample ingest fast path. This is the
// model the serving mode (cmd/speedtestd -ingest, speedctx load) loads at
// startup: ingest-time contextualization classifies each arriving test
// against the same fitted BST the offline tables use, so online tiers are
// bit-compatible with batch reruns over the captured rows.
func (s *Suite) CityClassifier(id string) (*core.Classifier, error) {
	b, err := s.City(id)
	if err != nil {
		return nil, err
	}
	a, err := b.OoklaAnalysis()
	if err != nil {
		return nil, err
	}
	return core.NewClassifier(a.Result), nil
}

// CityServingModel is CityClassifier plus the sketch state live refresh
// needs (DESIGN.md §12): the base tier sketches deposit every startup
// sample under its fitted upload-tier assignment, so a refresh loop can
// refit the BST from base ⊕ sealed-segment sketches. The returned spec is
// the city's catalog-derived grid — the one ingest segments must share for
// their sketches to merge with the base.
func (s *Suite) CityServingModel(id string) (*core.Classifier, *core.TierSketches, core.SketchSpec, error) {
	b, err := s.City(id)
	if err != nil {
		return nil, nil, core.SketchSpec{}, err
	}
	a, err := b.OoklaAnalysis()
	if err != nil {
		return nil, nil, core.SketchSpec{}, err
	}
	spec := core.SketchSpecFor(b.Catalog)
	base, err := core.SketchesFromResult(a.Result, b.OoklaSampleView(), spec)
	if err != nil {
		return nil, nil, core.SketchSpec{}, err
	}
	return core.NewClassifier(a.Result), base, spec, nil
}
