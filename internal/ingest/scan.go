package ingest

// Streamed segment scans (DESIGN.md §14): every ingest-side consumer of a
// sealed .sxc segment — the tile-layer refresh fold, sketch priming at
// startup, and compaction — iterates the file through a
// dataset.BlockScanner instead of materializing whole-segment columns, so
// peak memory stays bounded by the scan batch however large a segment
// grew.

import (
	"errors"
	"fmt"

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

// rebinCitySamples rebuilds one city's sketch contribution by streaming
// the segment's raw rows — the fallback for legacy segments without
// bundles, or bundles on a foreign grid. Bin masses are integer counts, so
// the result is the AddSample pass over the city's rows at every batch
// size. On a scan error the partial sketches are discarded.
func rebinCitySamples(path, city string, spec CitySketchSpec, batchRows int) (*core.TierSketches, error) {
	src, err := dataset.OpenFileSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	sc, err := dataset.NewBlockScanner(src, sketchSampleSelection, batchRows)
	if err != nil {
		return nil, err
	}
	ts, err := core.NewTierSketches(spec.Spec, spec.Tiers)
	if err != nil {
		return nil, err
	}
	for sc.Scan() {
		b := sc.Batch()
		if b.Kind != dataset.SectionIngest || b.Rows == 0 {
			continue
		}
		g := b.Ingest
		for i, c := range g.City {
			if c == city {
				ts.AddSample(g.UploadTier[i], g.Download[i], g.Upload[i])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ts, nil
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

// segmentScan is one segment's compaction payload: its rows (copied out
// of the reused batch buffers) and its persisted sketch bundles.
type segmentScan struct {
	rows    []dataset.IngestRow
	bundles []dataset.SketchBundle
}

// compactSelection materializes everything a compaction re-encodes: the
// full ingest section plus the sketch bundles.
var compactSelection = dataset.SnapshotSelection{
	Ingest: dataset.AllColumns, Sketches: true,
}

// scanSegmentsForCompact streams every segment concurrently (one scanner
// per file via internal/parallel) and returns the per-segment payloads in
// path order — the deterministic ordered reduction compaction folds over.
func scanSegmentsForCompact(paths []string, par, batchRows int) ([]segmentScan, error) {
	return dataset.ScanSegments(par, paths, compactSelection, batchRows,
		func(_ int, sc *dataset.BlockScanner) (segmentScan, error) {
			var d segmentScan
			sawIngest := false
			for sc.Scan() {
				b := sc.Batch()
				switch b.Kind {
				case dataset.SectionIngest:
					sawIngest = true
					if b.Rows > 0 {
						// Rows() copies each row out of the batch's reused
						// columns (strings are stable dictionary entries).
						d.rows = append(d.rows, b.Ingest.Rows()...)
					}
				case dataset.SectionSketch:
					d.bundles = append(d.bundles, b.Sketches...)
				default:
					return d, fmt.Errorf("unexpected section kind %d in segment", b.Kind)
				}
			}
			if err := sc.Err(); err != nil {
				return d, err
			}
			if !sawIngest {
				return d, errors.New("snapshot carries no ingest section")
			}
			return d, nil
		})
}
