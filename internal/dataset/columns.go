package dataset

import (
	"math"
	"sort"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/wifi"
)

// Columnar (SoA) views of the record slices. The analysis and experiment
// layers slice the same few columns over and over — download/upload pairs
// for BST fits, uploads for density figures, timestamps for hour bins —
// and walking []OoklaRecord (~160-byte structs) re-extracts and
// re-allocates those floats for every figure. A Columns value extracts
// every column once and is cached per dataset (see
// experiments.CityBundle), so repeated consumers share the exact same
// backing slices. That identity is what keeps the fit cache hot: two
// tables fitting "the same" city slice hand the cache bit-identical
// sample memory.
//
// Since PR 5 the columns are also the ingest interchange format: the
// parallel CSV decoders (decode.go) parse straight into them with no
// intermediate row structs, and the .sxc snapshot codec (snapshot.go)
// serializes them directly. They therefore carry every CSV field —
// including the constant-per-city string columns — so records and columns
// convert losslessly in both directions (Columnize* / Records). For Ookla,
// M-Lab rows and MBA both conversions walk the section layout tables
// (layout.go); the ingest pair stays hand-written on the seal path.

// OoklaColumns is the column-oriented view of an Ookla dataset.
type OoklaColumns struct {
	Download, Upload, Latency []float64
	RSSI, MaxTheoretical      []float64
	TestID, UserID, TruthTier []int
	KernelMemMB               []int
	City, ISP                 []string
	Platform                  []device.Platform
	Access                    []AccessType
	HasRadioInfo              []bool
	Band                      []wifi.Band
	Timestamp                 []time.Time
}

// ColumnizeOokla extracts every column of the records.
func ColumnizeOokla(recs []OoklaRecord) *OoklaColumns { return ooklaLayout.columnize(recs) }

// Len returns the row count.
func (c *OoklaColumns) Len() int { return len(c.Download) }

// Records materializes the row-struct view: the inverse of ColumnizeOokla.
func (c *OoklaColumns) Records() []OoklaRecord { return ooklaLayout.records(c, c.Len()) }

// MLabColumns is the column-oriented view of associated NDT tests.
type MLabColumns struct {
	Download, Upload, MinRTT []float64
	TruthTier                []int
	Timestamp                []time.Time
}

// ColumnizeMLab extracts every column in one pass over the tests.
func ColumnizeMLab(tests []MLabTest) *MLabColumns {
	n := len(tests)
	c := &MLabColumns{
		Download: make([]float64, n), Upload: make([]float64, n),
		MinRTT: make([]float64, n), TruthTier: make([]int, n),
		Timestamp: make([]time.Time, n),
	}
	for i := range tests {
		t := &tests[i]
		c.Download[i], c.Upload[i], c.MinRTT[i] = t.DownloadMbps, t.UploadMbps, t.MinRTTMs
		c.TruthTier[i] = t.TruthTier
		c.Timestamp[i] = t.Timestamp
	}
	return c
}

// Len returns the row count.
func (c *MLabColumns) Len() int { return len(c.Download) }

// MLabRowColumns is the column-oriented view of raw NDT rows — the
// direction-separated form M-Lab publishes and the mlab CSV/snapshot codecs
// transport. (MLabColumns above is the view of *associated* tests, the form
// the analysis layer consumes after §3.2 pairing.)
type MLabRowColumns struct {
	Speed, MinRTT      []float64
	RowID, ASN         []int
	TruthTier          []int
	ClientIP, ServerIP []string
	City, ISP          []string
	Direction          []MLabDirection
	Timestamp          []time.Time
}

// ColumnizeMLabRows extracts every column of the rows.
func ColumnizeMLabRows(rows []MLabRow) *MLabRowColumns { return mlabLayout.columnize(rows) }

// Len returns the row count.
func (c *MLabRowColumns) Len() int { return len(c.Speed) }

// Records materializes the row-struct view: the inverse of ColumnizeMLabRows.
func (c *MLabRowColumns) Records() []MLabRow { return mlabLayout.records(c, c.Len()) }

// IngestRow is one contextualized live measurement: the <download, upload>
// tuple a speed-test client reported to the ingest service, plus the BST
// verdict (upload tier, plan tier, confidence) assigned at ingest time.
// These are the rows the internal/ingest write-behind batcher seals into
// .sxc segments — the production form of the paper's "contextualize every
// raw tuple" loop.
type IngestRow struct {
	TestID, UserID int
	City, ISP      string
	Timestamp      time.Time
	DownloadMbps   float64
	UploadMbps     float64
	LatencyMs      float64
	UploadTier     int // index into the catalog's upload tiers; -1 = off catalog
	Tier           int // 1-based plan tier; 0 = unassigned
	Confidence     float64
}

// ingestRowLess is the stable seal/compaction order of ingest rows: a total
// order over every field, so sorting any permutation of the same rows
// yields the same sequence — the property that makes sealed snapshot bytes
// independent of arrival interleaving and worker count. Float fields
// compare by IEEE-754 bit pattern: not numeric order, but a deterministic
// tiebreak that (unlike <) also totally orders NaNs and signed zeros.
func ingestRowLess(a, b *IngestRow) bool {
	if a.City != b.City {
		return a.City < b.City
	}
	if a.TestID != b.TestID {
		return a.TestID < b.TestID
	}
	if a.UserID != b.UserID {
		return a.UserID < b.UserID
	}
	if an, bn := a.Timestamp.UnixNano(), b.Timestamp.UnixNano(); an != bn {
		return an < bn
	}
	for _, p := range [...][2]float64{
		{a.DownloadMbps, b.DownloadMbps},
		{a.UploadMbps, b.UploadMbps},
		{a.LatencyMs, b.LatencyMs},
		{a.Confidence, b.Confidence},
	} {
		if ab, bb := math.Float64bits(p[0]), math.Float64bits(p[1]); ab != bb {
			return ab < bb
		}
	}
	if a.UploadTier != b.UploadTier {
		return a.UploadTier < b.UploadTier
	}
	if a.Tier != b.Tier {
		return a.Tier < b.Tier
	}
	return a.ISP < b.ISP
}

// SortIngestRows sorts rows into the stable seal/compaction order.
func SortIngestRows(rows []IngestRow) {
	sort.Slice(rows, func(i, j int) bool { return ingestRowLess(&rows[i], &rows[j]) })
}

// IngestColumns is the column-oriented view of contextualized ingest rows,
// the form the .sxc ingest-section codec transports.
type IngestColumns struct {
	Download, Upload, Latency []float64
	Confidence                []float64
	TestID, UserID            []int
	UploadTier, Tier          []int
	City, ISP                 []string
	Timestamp                 []time.Time
}

// ColumnizeIngest extracts every column in one pass over the rows.
func ColumnizeIngest(rows []IngestRow) *IngestColumns {
	c := newIngestColumns(len(rows))
	for i := range rows {
		c.setRow(i, &rows[i])
	}
	return c
}

// setRow stores r as row i.
func (c *IngestColumns) setRow(i int, r *IngestRow) {
	c.Download[i], c.Upload[i], c.Latency[i] = r.DownloadMbps, r.UploadMbps, r.LatencyMs
	c.Confidence[i] = r.Confidence
	c.TestID[i], c.UserID[i] = r.TestID, r.UserID
	c.UploadTier[i], c.Tier[i] = r.UploadTier, r.Tier
	c.City[i], c.ISP[i] = r.City, r.ISP
	c.Timestamp[i] = r.Timestamp
}

// newIngestColumns allocates every column at n rows.
func newIngestColumns(n int) *IngestColumns {
	return &IngestColumns{
		Download: make([]float64, n), Upload: make([]float64, n),
		Latency: make([]float64, n), Confidence: make([]float64, n),
		TestID: make([]int, n), UserID: make([]int, n),
		UploadTier: make([]int, n), Tier: make([]int, n),
		City: make([]string, n), ISP: make([]string, n),
		Timestamp: make([]time.Time, n),
	}
}

// copyRow stores row j of src as row i.
func (c *IngestColumns) copyRow(i int, src *IngestColumns, j int) {
	c.Download[i], c.Upload[i], c.Latency[i] = src.Download[j], src.Upload[j], src.Latency[j]
	c.Confidence[i] = src.Confidence[j]
	c.TestID[i], c.UserID[i] = src.TestID[j], src.UserID[j]
	c.UploadTier[i], c.Tier[i] = src.UploadTier[j], src.Tier[j]
	c.City[i], c.ISP[i] = src.City[j], src.ISP[j]
	c.Timestamp[i] = src.Timestamp[j]
}

// row returns row i as a row struct.
func (c *IngestColumns) row(i int) IngestRow {
	return IngestRow{
		TestID: c.TestID[i], UserID: c.UserID[i],
		City: c.City[i], ISP: c.ISP[i],
		Timestamp:    c.Timestamp[i],
		DownloadMbps: c.Download[i], UploadMbps: c.Upload[i],
		LatencyMs:  c.Latency[i],
		UploadTier: c.UploadTier[i], Tier: c.Tier[i],
		Confidence: c.Confidence[i],
	}
}

// Len returns the row count.
func (c *IngestColumns) Len() int { return len(c.Download) }

// Rows materializes the row-struct view — the inverse of ColumnizeIngest,
// field-for-field.
func (c *IngestColumns) Rows() []IngestRow {
	rows := make([]IngestRow, c.Len())
	for i := range rows {
		rows[i] = c.row(i)
	}
	return rows
}

// MBAColumns is the column-oriented view of an MBA panel.
type MBAColumns struct {
	Download, Upload, PlanDown, PlanUp []float64
	UnitID, Tier                       []int
	State, ISP, CensusTract            []string
	Timestamp                          []time.Time
}

// ColumnizeMBA extracts every column of the records.
func ColumnizeMBA(recs []MBARecord) *MBAColumns { return mbaLayout.columnize(recs) }

// Len returns the row count.
func (c *MBAColumns) Len() int { return len(c.Download) }

// Records materializes the row-struct view: the inverse of ColumnizeMBA.
func (c *MBAColumns) Records() []MBARecord { return mbaLayout.records(c, c.Len()) }
