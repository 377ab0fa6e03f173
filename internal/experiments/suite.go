// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic datasets. The CLI (cmd/speedctx), the bench
// harness (bench_test.go) and EXPERIMENTS.md all drive this package, so a
// number printed anywhere traces to exactly one implementation.
//
// A Suite lazily generates and caches each city's datasets at a configured
// scale (fraction of the paper's Table 1 row counts) and memoizes the BST
// fits, which dominate runtime.
package experiments

import (
	"fmt"
	"sync"

	"speedctx/internal/analysis"
	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/device"
	"speedctx/internal/fitcache"
	"speedctx/internal/plans"
	"speedctx/internal/population"
)

// PaperCounts are the dataset sizes of the paper's Table 1.
var PaperCounts = map[string]struct {
	Ookla, MLab, MBA int
	MBAUnits         int
}{
	"A": {214000, 113000, 25900, 20},
	"B": {205000, 376000, 14900, 17},
	"C": {128000, 64000, 10900, 10},
	"D": {198000, 166000, 8900, 11},
}

// Suite generates and caches the per-city data baskets.
type Suite struct {
	// Scale is the fraction of the paper's row counts to generate.
	Scale float64
	// Seed roots all generation randomness.
	Seed int64
	// Parallelism bounds the worker count of every BST fit the suite
	// runs (0 = GOMAXPROCS, 1 = serial) and of callers fanning the
	// suite's figures/tables out concurrently (cmd/speedctx `all`). Set
	// it before the first City call. Results are identical at every
	// setting — the pipeline reduces in fixed chunk order — so this
	// knob trades wall-clock only.
	Parallelism int
	// FastFit switches every BST fit to the binned KDE / histogram-EM
	// fast paths (core.Config.FastFit; DESIGN.md §8). Approximate but
	// deterministic; set it before the first City call.
	FastFit bool
	// FitCache memoizes GMM fits across every table, figure and sweep
	// the suite drives, content-addressed by (slice bytes, fit config) —
	// regenerating two tables over the same city slice fits once.
	// NewSuite installs a shared cache; nil disables caching.
	FitCache *fitcache.Cache
	// SnapshotDir, when non-empty, names a .sxc snapshot cache directory
	// (dataset.SnapshotStore) consulted before generating a city:
	// a valid snapshot for (city, seed, scale, data-version) replaces
	// generation entirely, and a miss generates then atomically writes
	// the snapshot back. Loaded bundles are value-identical to generated
	// ones, so suite output does not depend on cache state.
	SnapshotDir string

	mu     sync.Mutex
	cities map[string]*cityEntry
}

// cityEntry is the per-city inflight guard: Suite.City resolves the entry
// under Suite.mu but generates outside it, under the entry's own once, so
// concurrent requests for different cities generate concurrently while a
// second request for the same city blocks until the first build finishes.
type cityEntry struct {
	once sync.Once
	b    *CityBundle
	err  error
}

// cityGenHook, when non-nil, is called at the start of every city build.
// Test seam: the concurrency test uses it to prove two cities are in
// flight at once.
var cityGenHook func(id string)

// NewSuite creates a suite at the given scale (0 selects 0.02, i.e. ~4k
// Ookla rows for City A).
func NewSuite(scale float64, seed int64) *Suite {
	if scale <= 0 {
		scale = 0.02
	}
	if seed == 0 {
		seed = 2021
	}
	return &Suite{
		Scale:    scale,
		Seed:     seed,
		FitCache: fitcache.New(0),
		cities:   map[string]*cityEntry{},
	}
}

// BSTConfig is the core.Config every suite-driven fit runs with: the
// suite's parallelism, fast-fit and cache knobs over the paper defaults.
func (s *Suite) BSTConfig() core.Config {
	return core.Config{
		Parallelism: s.Parallelism,
		FastFit:     s.FastFit,
		FitCache:    s.FitCache,
	}
}

// CityBundle is one city's generated data plus memoized BST fits.
type CityBundle struct {
	Catalog   *plans.Catalog
	Ookla     []dataset.OoklaRecord
	MLabRows  []dataset.MLabRow
	MLabTests []dataset.MLabTest
	MBA       []dataset.MBARecord

	ooklaOnce sync.Once
	ooklaA    *analysis.Ookla
	ooklaErr  error
	mlabOnce  sync.Once
	mlabA     *analysis.MLab
	mlabErr   error

	androidOnce sync.Once
	androidA    *analysis.Ookla
	androidErr  error
	androidSeed int64
	androidN    int
	androidRecs []dataset.OoklaRecord // preset by the snapshot path

	// Columnar views and derived sample slices, extracted once and shared
	// by every table/figure consumer — identical backing arrays keep the
	// fit cache hot (DESIGN.md §9).
	ooklaColsOnce sync.Once
	ooklaCols     *dataset.OoklaColumns
	mlabColsOnce  sync.Once
	mlabCols      *dataset.MLabColumns
	mbaColsOnce   sync.Once
	mbaCols       *dataset.MBAColumns

	ooklaSamplesOnce sync.Once
	ooklaSamples     []core.Sample

	mbaFitOnce sync.Once
	mbaRes     *core.Result
	mbaEval    *core.Evaluation
	mbaErr     error

	platformOnce  sync.Once
	platformSlabs []platformSlice

	cfg core.Config // Suite.BSTConfig() at bundle creation
}

// OoklaCols returns (extracting on first use) the columnar view of the
// city's Ookla dataset. The snapshot path presets the field — the Once
// body keeps a preset view instead of re-extracting, so snapshot-loaded
// columns stay the canonical shared backing arrays.
func (b *CityBundle) OoklaCols() *dataset.OoklaColumns {
	b.ooklaColsOnce.Do(func() {
		if b.ooklaCols == nil {
			b.ooklaCols = dataset.ColumnizeOokla(b.Ookla)
		}
	})
	return b.ooklaCols
}

// MLabCols returns the columnar view of the city's associated NDT tests.
func (b *CityBundle) MLabCols() *dataset.MLabColumns {
	b.mlabColsOnce.Do(func() { b.mlabCols = dataset.ColumnizeMLab(b.MLabTests) })
	return b.mlabCols
}

// MBACols returns the columnar view of the city's MBA panel (preset by the
// snapshot path, like OoklaCols).
func (b *CityBundle) MBACols() *dataset.MBAColumns {
	b.mbaColsOnce.Do(func() {
		if b.mbaCols == nil {
			b.mbaCols = dataset.ColumnizeMBA(b.MBA)
		}
	})
	return b.mbaCols
}

// OoklaSampleView returns the shared <download, upload> sample slice of the
// city's Ookla dataset. Callers must not mutate it.
func (b *CityBundle) OoklaSampleView() []core.Sample {
	b.ooklaSamplesOnce.Do(func() {
		c := b.OoklaCols()
		b.ooklaSamples = pairSamples(c.Download, c.Upload)
	})
	return b.ooklaSamples
}

// pairSamples zips parallel download/upload columns into BST input.
func pairSamples(down, up []float64) []core.Sample {
	out := make([]core.Sample, len(down))
	for i := range out {
		out[i] = core.Sample{Download: down[i], Upload: up[i]}
	}
	return out
}

// coreCfg is the BST configuration every suite-driven fit uses: defaults
// plus the suite's parallelism, fast-fit and cache knobs.
func (b *CityBundle) coreCfg() core.Config { return b.cfg }

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 400 {
		v = 400
	}
	return v
}

// City returns (generating on first use) the bundle for a city ID. The
// suite lock only resolves the per-city entry; dataset generation runs
// outside it, so different cities generate concurrently (the `all`
// fan-out's first jobs no longer serialize on one big lock).
func (s *Suite) City(id string) (*CityBundle, error) {
	s.mu.Lock()
	e, ok := s.cities[id]
	if !ok {
		e = &cityEntry{}
		s.cities[id] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.b, e.err = s.buildCity(id) })
	return e.b, e.err
}

// buildCity produces one city's datasets at the suite's scale, seed and
// parallelism: from the snapshot store when configured and warm, by
// generation otherwise (writing the snapshot back on a miss). Both paths
// yield value-identical bundles, so everything downstream is oblivious to
// where the data came from.
func (s *Suite) buildCity(id string) (*CityBundle, error) {
	if cityGenHook != nil {
		cityGenHook(id)
	}
	cat, ok := plans.ByCity(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown city %q", id)
	}
	counts, ok := PaperCounts[id]
	if !ok {
		return nil, fmt.Errorf("experiments: no paper counts for city %q", id)
	}
	seed := s.Seed + int64(id[0])*1000
	b := &CityBundle{Catalog: cat, cfg: s.BSTConfig()}
	b.androidSeed = seed + 3
	// The paper's radio analyses (Figs 9b-d, 10) use Android-only
	// slices; the Android-only dataset is sized for stable per-bin
	// medians.
	b.androidN = scaled(counts.Ookla/3, s.Scale)
	if b.androidN < 6000 {
		b.androidN = 6000
	}

	if s.SnapshotDir == "" {
		s.generateCity(b, cat, counts.Ookla, counts.MLab, counts.MBA, counts.MBAUnits, seed)
		return b, nil
	}

	store := &dataset.SnapshotStore{Dir: s.SnapshotDir}
	key := dataset.SnapshotKey{City: id, Seed: s.Seed, Scale: s.Scale}
	if snap, err := store.Load(key); err == nil &&
		snap.Ookla != nil && snap.MLabRows != nil && snap.MBA != nil {
		// Warm hit: the snapshot's columns become the bundle's canonical
		// columnar views directly; row-struct views materialize from them
		// and the §3.2 association (a pure function of the rows) is
		// recomputed rather than stored.
		b.ooklaCols = snap.Ookla
		b.Ookla = snap.Ookla.Records()
		b.MLabRows = snap.MLabRows.Records()
		b.MLabTests = dataset.Associate(b.MLabRows)
		b.mbaCols = snap.MBA
		b.MBA = snap.MBA.Records()
		if snap.Android != nil {
			b.androidRecs = snap.Android.Records()
		}
		return b, nil
	}

	// Miss (absent, torn, corrupt or stale): generate — including the
	// Android slice, eagerly, so the snapshot covers every dataset a full
	// suite run needs — and atomically write the snapshot back.
	s.generateCity(b, cat, counts.Ookla, counts.MLab, counts.MBA, counts.MBAUnits, seed)
	b.androidRecs = b.generateAndroid()
	snap := &dataset.CitySnapshot{
		Ookla:    b.OoklaCols(),
		MLabRows: dataset.ColumnizeMLabRows(b.MLabRows),
		MBA:      b.MBACols(),
		Android:  dataset.ColumnizeOokla(b.androidRecs),
	}
	if err := store.Save(key, snap); err != nil {
		return nil, fmt.Errorf("experiments: snapshot save for city %q: %w", id, err)
	}
	return b, nil
}

// generateCity fills the bundle's record slices by dataset generation.
func (s *Suite) generateCity(b *CityBundle, cat *plans.Catalog, ookla, mlab, mba, mbaUnits int, seed int64) {
	b.Ookla = dataset.GenerateOoklaPar(cat, scaled(ookla, s.Scale), seed, s.Parallelism)
	b.MLabRows = dataset.GenerateMLabPar(cat, scaled(mlab, s.Scale), seed+1, dataset.DefaultMLabOptions(), s.Parallelism)
	b.MLabTests = dataset.Associate(b.MLabRows)
	b.MBA = dataset.GenerateMBAPar(cat, mbaUnits, scaled(mba, s.Scale), seed+2, s.Parallelism)
}

// generateAndroid generates the city's Android-only Ookla dataset.
func (b *CityBundle) generateAndroid() []dataset.OoklaRecord {
	model := population.OoklaModel(b.Catalog).WithOnlyPlatform(device.Android)
	return dataset.GenerateOoklaModelPar(b.Catalog, model, b.androidN, b.androidSeed, b.cfg.Parallelism)
}

// AndroidAnalysis returns (building on first use) the BST
// contextualization of an Android-only dataset for the city — the slice the
// paper's radio/memory analyses run on. The records come from the snapshot
// when buildCity loaded one, and are generated otherwise.
func (b *CityBundle) AndroidAnalysis() (*analysis.Ookla, error) {
	b.androidOnce.Do(func() {
		recs := b.androidRecs
		if recs == nil {
			recs = b.generateAndroid()
		}
		b.androidA, b.androidErr = analysis.AnalyzeOokla(b.Catalog, recs, b.coreCfg())
	})
	return b.androidA, b.androidErr
}

// OoklaAnalysis returns the memoized BST contextualization of the city's
// Ookla dataset.
func (b *CityBundle) OoklaAnalysis() (*analysis.Ookla, error) {
	b.ooklaOnce.Do(func() {
		b.ooklaA, b.ooklaErr = analysis.AnalyzeOokla(b.Catalog, b.Ookla, b.coreCfg())
	})
	return b.ooklaA, b.ooklaErr
}

// MLabAnalysis returns the memoized BST contextualization of the city's
// associated NDT tests.
func (b *CityBundle) MLabAnalysis() (*analysis.MLab, error) {
	b.mlabOnce.Do(func() {
		b.mlabA, b.mlabErr = analysis.AnalyzeMLab(b.Catalog, b.MLabTests, b.coreCfg())
	})
	return b.mlabA, b.mlabErr
}

// MBAFit runs (once, memoized) BST over the city's MBA panel and scores it
// against the ground-truth tiers. Table 2, Figure 5 and the ablations all
// consume the same fit.
func (b *CityBundle) MBAFit() (*core.Result, *core.Evaluation, error) {
	b.mbaFitOnce.Do(func() {
		c := b.MBACols()
		samples := pairSamples(c.Download, c.Upload)
		res, err := core.Fit(samples, b.Catalog, b.coreCfg())
		if err != nil {
			b.mbaErr = err
			return
		}
		ev, err := core.Evaluate(res, c.Tier)
		if err != nil {
			b.mbaErr = err
			return
		}
		b.mbaRes, b.mbaEval = res, ev
	})
	return b.mbaRes, b.mbaEval, b.mbaErr
}

// CityIDs lists the study cities in paper order.
func CityIDs() []string { return []string{"A", "B", "C", "D"} }
