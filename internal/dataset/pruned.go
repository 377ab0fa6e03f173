package dataset

// Column-pruned .sxc decoding (DESIGN.md §13). The snapshot format
// length-prefixes every column block and fixes the column order per section
// kind (the layout tables, layout.go), so a reader that does not want a column can skip it with a seek
// (read the id byte and the payload length, advance) instead of a decode,
// and a reader that wants no column of a section can skip the whole section
// the same way. Queries declare the columns they touch via a
// SnapshotSelection; everything else is never materialized. The selective
// and the full decoder are the same code path — DecodeCitySnapshot is
// decodeCitySnapshotSel with everything selected, and NewBlockScanner
// streams any selection — so a selected column decodes to bytes identical
// to what a full decode would produce, by construction (and by
// TestDecodePrunedMatchesFull / FuzzDecodePruned).

// ColumnSet selects columns of one section by id: bit i selects column id
// i (ids are 1-based, following each section's CSV header order). The zero
// ColumnSet selects nothing — a section whose set is zero is skipped
// entirely.
type ColumnSet uint32

// AllColumns selects every column of a section.
const AllColumns = ^ColumnSet(0)

// Cols builds a ColumnSet from column ids.
func Cols(ids ...int) ColumnSet {
	var s ColumnSet
	for _, id := range ids {
		s |= 1 << uint(id)
	}
	return s
}

// Has reports whether column id is selected.
func (s ColumnSet) Has(id byte) bool { return s&(1<<uint(id)) != 0 }

// Ookla section column ids (kinds 1 and 4 — the Android section shares the
// codec). Ids follow the Ookla CSV header order.
const (
	OoklaColTestID = iota + 1
	OoklaColUserID
	OoklaColCity
	OoklaColISP
	OoklaColTimestamp
	OoklaColPlatform
	OoklaColAccess
	OoklaColHasRadioInfo
	OoklaColBand
	OoklaColRSSI
	OoklaColMaxTheoretical
	OoklaColKernelMemMB
	OoklaColDownload
	OoklaColUpload
	OoklaColLatency
	OoklaColTruthTier
)

// Ingest section column ids (kind 5).
const (
	IngestColTestID = iota + 1
	IngestColUserID
	IngestColCity
	IngestColISP
	IngestColTimestamp
	IngestColDownload
	IngestColUpload
	IngestColLatency
	IngestColUploadTier
	IngestColTier
	IngestColConfidence
)

// SnapshotSelection declares, per section kind, which columns a query
// touches. A zero set skips that section; the zero SnapshotSelection skips
// everything (decoding only the envelope — useful for probing).
type SnapshotSelection struct {
	Ookla   ColumnSet
	MLab    ColumnSet
	MBA     ColumnSet
	Android ColumnSet
	Ingest  ColumnSet
	// Sketches selects the sketch section whole: its eight columns are one
	// logical record batch, so it prunes all-or-nothing.
	Sketches bool
	// Predicate, when non-nil, additionally skips zoned row groups (v3
	// files, DESIGN.md §15) whose zone maps prove no row can match. It is
	// purely a data-skipping hint: plain v2 sections ignore it, and the
	// surviving rows are always a superset of the matching rows. A pointer
	// so that selections stay comparable (SelectAll() identifies the
	// trailer-checksum path by equality).
	Predicate *ScanPredicate
}

// SelectAll selects every column of every section — the full decode.
func SelectAll() SnapshotSelection {
	return SnapshotSelection{
		Ookla: AllColumns, MLab: AllColumns, MBA: AllColumns,
		Android: AllColumns, Ingest: AllColumns, Sketches: true,
	}
}

// DecodeCounters reports what a decode materialized versus seeked over —
// the observable side of the pushdown contract, asserted by tests and
// exported through /statsz.
type DecodeCounters struct {
	// SectionsDecoded / SectionsSkipped count section bodies entered vs
	// seeked over whole.
	SectionsDecoded int
	SectionsSkipped int
	// ColumnsDecoded / ColumnsSkipped count individual column blocks
	// (skipped sections contribute their blocks to ColumnsSkipped).
	ColumnsDecoded int
	ColumnsSkipped int
	// BytesSkipped totals the payload bytes never decoded.
	BytesSkipped int64
	// BlocksScanned / BlocksSkipped count zoned row groups (v3 files)
	// decoded vs skipped by a Predicate's zone-map check; both stay zero
	// for v2 files and predicate-free scans of zoned files count every
	// group as scanned. RowsSkipped totals the rows inside skipped groups.
	BlocksScanned int
	BlocksSkipped int
	RowsSkipped   int64
}
