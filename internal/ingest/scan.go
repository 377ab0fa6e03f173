package ingest

// Streamed segment scans (DESIGN.md §14): every ingest-side consumer of a
// sealed .sxc segment — the tile-layer refresh fold, sketch priming at
// startup, and compaction's merge (dataset.MergeIngestRuns) — iterates the
// file through a dataset.BlockScanner instead of materializing
// whole-segment columns, so peak memory stays bounded by the scan batch
// however large a segment grew.

import (
	"speedctx/internal/core"
	"speedctx/internal/dataset"
)

// sketchSampleSelection is the four-column projection the sketch-rebin
// fallback streams: just what AddSample and the per-city filter consume.
var sketchSampleSelection = dataset.SnapshotSelection{
	Ingest: dataset.Cols(
		dataset.IngestColCity, dataset.IngestColDownload,
		dataset.IngestColUpload, dataset.IngestColUploadTier,
	),
}

// rebinCitySamples rebuilds the sketch contribution of every city in
// specs in one stream over the segment's raw rows — the fallback for
// legacy segments without bundles, cities a segment holds no bundle for,
// or bundles on a foreign grid. Bin masses are integer counts, so each
// city's result is the AddSample pass over its rows at every batch size.
// Rows of cities outside specs are skipped. On a scan error the partial
// sketches are discarded.
func rebinCitySamples(path string, specs map[string]CitySketchSpec, batchRows int) (map[string]*core.TierSketches, error) {
	out := make(map[string]*core.TierSketches, len(specs))
	for city, spec := range specs {
		ts, err := core.NewTierSketches(spec.Spec, spec.Tiers)
		if err != nil {
			return nil, err
		}
		out[city] = ts
	}
	src, err := dataset.OpenFileSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	sc, err := dataset.NewBlockScanner(src, sketchSampleSelection, batchRows)
	if err != nil {
		return nil, err
	}
	for sc.Scan() {
		b := sc.Batch()
		if b.Kind != dataset.SectionIngest || b.Rows == 0 {
			continue
		}
		g := b.Ingest
		// Look the city up only when it differs from the previous row's.
		cur, ts := "", out[""]
		for i, c := range g.City {
			if c != cur {
				cur, ts = c, out[c]
			}
			if ts != nil {
				ts.AddSample(g.UploadTier[i], g.Download[i], g.Upload[i])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// scanSegmentBundles streams just a segment's sketch section — the scan
// seeks past every row block, so this reads a few KiB however many rows
// the segment holds.
func scanSegmentBundles(path string) ([]dataset.SketchBundle, error) {
	src, err := dataset.OpenFileSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	sc, err := dataset.NewBlockScanner(src, dataset.SnapshotSelection{Sketches: true}, 0)
	if err != nil {
		return nil, err
	}
	var bundles []dataset.SketchBundle
	for sc.Scan() {
		bundles = append(bundles, sc.Batch().Sketches...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return bundles, nil
}
