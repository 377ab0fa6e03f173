package tilequery

// Streamed scan→fold fusion (DESIGN.md §14): batches from a
// dataset.BlockScanner fold straight into the integer-exact tile
// accumulators, so aggregating a snapshot never materializes whole-city
// columns. Because accumulation is a pure function of the row multiset,
// the index an AddScan builds is identical to one built by AddRows over
// the materialized decode — at every batch size.

import (
	"fmt"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
)

// Pushdown converts a tile-range query into a scan predicate (DESIGN.md
// §15): attach it to the SnapshotSelection of a scanner over zoned
// segments and AddScan only folds row groups whose quadkey zone ranges
// can intersect r. Because the
// skipped groups' rows could only have landed on tiles outside r — the
// zone key derivation is the fold's own placement — the rendered tiles
// for r are byte-identical with and without the predicate. nil r (a
// whole-zoom query) yields nil: nothing can be skipped.
func (c Config) Pushdown(r *opendata.TileRange) *dataset.ScanPredicate {
	if r == nil {
		return nil
	}
	return r.ZonePredicate()
}

// RowsView maps one scanner batch onto the fold's row view without
// copying: the returned Rows alias the batch's (reused) buffers, valid
// exactly as long as the batch is. Ookla and Android batches carry no
// tier column (tiers come from a fit, not the file); Ingest batches carry
// their persisted classification verdicts.
func RowsView(b *dataset.ColumnsBatch) (*Rows, error) {
	switch b.Kind {
	case dataset.SectionOokla, dataset.SectionAndroid:
		o := b.Ookla
		return &Rows{
			UserID: o.UserID, Download: o.Download, Upload: o.Upload,
			Latency: o.Latency, Access: o.Access,
		}, nil
	case dataset.SectionIngest:
		g := b.Ingest
		return &Rows{
			UserID: g.UserID, City: g.City, Download: g.Download,
			Upload: g.Upload, Latency: g.Latency, Tier: g.Tier,
		}, nil
	}
	return nil, fmt.Errorf("tilequery: no tile row view for section kind %d", b.Kind)
}

// AddScan drains a block scanner into the index, folding each batch as it
// is decoded. Every row section the scanner yields must have a RowsView
// mapping — select only the sections the fold consumes. Batches are
// provisional until the scanner's final verification (a file-backed scan
// can surface a corrupt block mid-stream): on error the index may hold a
// partial fold, and the caller owns discarding it.
//
// Returns the cumulative count of (base tile, batch) touches, the same
// currency AddRows reports.
func (ix *Index) AddScan(sc *dataset.BlockScanner) (int, error) {
	touched := 0
	for sc.Scan() {
		b := sc.Batch()
		if b.Rows == 0 {
			continue
		}
		rows, err := RowsView(b)
		if err != nil {
			return touched, err
		}
		// AddRows is done with the rows when it returns, so aliasing the
		// scanner's reused buffers is safe.
		t, err := ix.AddRows(rows)
		if err != nil {
			return touched, err
		}
		touched += t
	}
	return touched, sc.Err()
}

// AddScan is Index.AddScan with the engine's invalidation accounting. The same provisionality caveat applies: on error the caller
// should Reset the engine before retrying the scan.
func (e *Engine) AddScan(sc *dataset.BlockScanner) error {
	touched, err := e.ix.AddScan(sc)
	e.inval += uint64(touched)
	return err
}
