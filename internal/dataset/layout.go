package dataset

import (
	"fmt"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/wifi"
)

// Section layouts: one table per row-section kind of the .sxc format
// (DESIGN.md §10). Each entry names a column's block id, its payload codec
// and the struct field it fills, and every path that walks a section's
// columns reads the table: the plain and zoned encoders, the block
// scanner's binder and column counts, zoned-group slicing, batch
// reassembly, clustering and the CSV chunk merge. Block ids run 1..N in
// table order (TestSectionLayoutIDs), so entry id-1 is the column the
// binder looks up for block id. The sketch section is not a table: its
// rows are variable-length records over a shared mass payload
// (encodeSketchSection, decodeSketchSectionWhole).

// codec is one column payload encoding: the encoder, the scanner's
// streaming binder, and the zone bounds a zoned row group records for the
// column (nil: none — only int and float columns carry bounds).
type codec[T any] struct {
	enc    func(b []byte, v []T) ([]byte, error)
	exec   func(s *BlockScanner, bi blockInfo, rows int, slot *[]T) error
	bounds func(z *zoneDirBuilder, v []T)
}

func infallible[T any](enc func([]byte, []T) []byte) func([]byte, []T) ([]byte, error) {
	return func(b []byte, v []T) ([]byte, error) { return enc(b, v), nil }
}

var (
	deltaInts  = codec[int]{enc: infallible(appendDeltaInts), exec: execInts, bounds: (*zoneDirBuilder).ints}
	rawFloats  = codec[float64]{enc: infallible(appendFloats), exec: execFloats, bounds: (*zoneDirBuilder).floats}
	timestamps = codec[time.Time]{enc: appendTimes, exec: execTimes}
	byteBools  = codec[bool]{enc: infallible(appendBools), exec: execBools}
)

// dictStrings is the dictionary codec of a low-cardinality string column.
func dictStrings[T ~string]() codec[T] {
	return codec[T]{enc: infallible(appendStrings[T]), exec: execStrings[T]}
}

// byteEnum is the one-byte-per-row codec of an enum column.
func byteEnum[T ~int]() codec[T] {
	return codec[T]{enc: infallible(appendBytes[T]), exec: execBytes[T]}
}

// column is one entry of a section layout over the column struct S.
type column[S any] interface {
	blockID() byte
	rows(c *S) int
	encode(e *snapEnc, c *S) error
	zone(z *zoneDirBuilder, c *S)
	bind(s *BlockScanner, bi blockInfo, rows int, c *S) error
	slice(dst, src *S, lo, hi int)
	appendFrom(dst, src *S)
	permute(dst, src *S, perm []int)
	concat(dst *S, parts []*S, n int)
}

// field is the column of S that get selects, stored under block id with
// codec c.
type field[S, T any] struct {
	id  byte
	c   codec[T]
	get func(*S) *[]T
}

func col[S, T any](id byte, c codec[T], get func(*S) *[]T) column[S] {
	return field[S, T]{id: id, c: c, get: get}
}

func (f field[S, T]) blockID() byte { return f.id }
func (f field[S, T]) rows(c *S) int { return len(*f.get(c)) }

func (f field[S, T]) encode(e *snapEnc, c *S) error {
	payload, err := f.c.enc(e.scratch[:0], *f.get(c))
	if err != nil {
		return err
	}
	e.column(f.id, payload)
	e.scratch = payload
	return nil
}

func (f field[S, T]) zone(z *zoneDirBuilder, c *S) {
	if f.c.bounds == nil {
		z.none()
		return
	}
	f.c.bounds(z, *f.get(c))
}

func (f field[S, T]) bind(s *BlockScanner, bi blockInfo, rows int, c *S) error {
	return f.c.exec(s, bi, rows, f.get(c))
}

func (f field[S, T]) slice(dst, src *S, lo, hi int) { *f.get(dst) = (*f.get(src))[lo:hi] }

// appendFrom concatenates one column across zoned-group batches. The
// first batch is adopted as-is (preserving nil-ness of unselected
// columns); later groups append.
func (f field[S, T]) appendFrom(dst, src *S) {
	d, v := f.get(dst), *f.get(src)
	switch {
	case v == nil:
	case *d == nil:
		*d = v
	default:
		*d = append(*d, v...)
	}
}

func (f field[S, T]) permute(dst, src *S, perm []int) {
	v := *f.get(src)
	if v == nil {
		return
	}
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = v[p]
	}
	*f.get(dst) = out
}

func (f field[S, T]) concat(dst *S, parts []*S, n int) {
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, *f.get(p)...)
	}
	*f.get(dst) = out
}

// layout is one row-section kind's column table. place, when set, yields
// the (city, user) columns a zoned encode derives row placements from.
type layout[S any] struct {
	name  string
	cols  []column[S]
	place func(c *S) ([]string, []int)
}

var ooklaLayout = layout[OoklaColumns]{
	name: "ookla",
	cols: []column[OoklaColumns]{
		col(OoklaColTestID, deltaInts, func(c *OoklaColumns) *[]int { return &c.TestID }),
		col(OoklaColUserID, deltaInts, func(c *OoklaColumns) *[]int { return &c.UserID }),
		col(OoklaColCity, dictStrings[string](), func(c *OoklaColumns) *[]string { return &c.City }),
		col(OoklaColISP, dictStrings[string](), func(c *OoklaColumns) *[]string { return &c.ISP }),
		col(OoklaColTimestamp, timestamps, func(c *OoklaColumns) *[]time.Time { return &c.Timestamp }),
		col(OoklaColPlatform, byteEnum[device.Platform](), func(c *OoklaColumns) *[]device.Platform { return &c.Platform }),
		col(OoklaColAccess, dictStrings[AccessType](), func(c *OoklaColumns) *[]AccessType { return &c.Access }),
		col(OoklaColHasRadioInfo, byteBools, func(c *OoklaColumns) *[]bool { return &c.HasRadioInfo }),
		col(OoklaColBand, byteEnum[wifi.Band](), func(c *OoklaColumns) *[]wifi.Band { return &c.Band }),
		col(OoklaColRSSI, rawFloats, func(c *OoklaColumns) *[]float64 { return &c.RSSI }),
		col(OoklaColMaxTheoretical, rawFloats, func(c *OoklaColumns) *[]float64 { return &c.MaxTheoretical }),
		col(OoklaColKernelMemMB, deltaInts, func(c *OoklaColumns) *[]int { return &c.KernelMemMB }),
		col(OoklaColDownload, rawFloats, func(c *OoklaColumns) *[]float64 { return &c.Download }),
		col(OoklaColUpload, rawFloats, func(c *OoklaColumns) *[]float64 { return &c.Upload }),
		col(OoklaColLatency, rawFloats, func(c *OoklaColumns) *[]float64 { return &c.Latency }),
		col(OoklaColTruthTier, deltaInts, func(c *OoklaColumns) *[]int { return &c.TruthTier }),
	},
	place: func(c *OoklaColumns) ([]string, []int) { return c.City, c.UserID },
}

var mlabLayout = layout[MLabRowColumns]{
	name: "mlab",
	cols: []column[MLabRowColumns]{
		col(1, deltaInts, func(c *MLabRowColumns) *[]int { return &c.RowID }),
		col(2, dictStrings[string](), func(c *MLabRowColumns) *[]string { return &c.ClientIP }),
		col(3, dictStrings[string](), func(c *MLabRowColumns) *[]string { return &c.ServerIP }),
		col(4, dictStrings[string](), func(c *MLabRowColumns) *[]string { return &c.City }),
		col(5, dictStrings[string](), func(c *MLabRowColumns) *[]string { return &c.ISP }),
		col(6, deltaInts, func(c *MLabRowColumns) *[]int { return &c.ASN }),
		col(7, timestamps, func(c *MLabRowColumns) *[]time.Time { return &c.Timestamp }),
		col(8, dictStrings[MLabDirection](), func(c *MLabRowColumns) *[]MLabDirection { return &c.Direction }),
		col(9, rawFloats, func(c *MLabRowColumns) *[]float64 { return &c.Speed }),
		col(10, rawFloats, func(c *MLabRowColumns) *[]float64 { return &c.MinRTT }),
		col(11, deltaInts, func(c *MLabRowColumns) *[]int { return &c.TruthTier }),
	},
}

var mbaLayout = layout[MBAColumns]{
	name: "mba",
	cols: []column[MBAColumns]{
		col(1, deltaInts, func(c *MBAColumns) *[]int { return &c.UnitID }),
		col(2, dictStrings[string](), func(c *MBAColumns) *[]string { return &c.State }),
		col(3, dictStrings[string](), func(c *MBAColumns) *[]string { return &c.ISP }),
		col(4, dictStrings[string](), func(c *MBAColumns) *[]string { return &c.CensusTract }),
		col(5, timestamps, func(c *MBAColumns) *[]time.Time { return &c.Timestamp }),
		col(6, rawFloats, func(c *MBAColumns) *[]float64 { return &c.Download }),
		col(7, rawFloats, func(c *MBAColumns) *[]float64 { return &c.Upload }),
		col(8, rawFloats, func(c *MBAColumns) *[]float64 { return &c.PlanDown }),
		col(9, rawFloats, func(c *MBAColumns) *[]float64 { return &c.PlanUp }),
		col(10, deltaInts, func(c *MBAColumns) *[]int { return &c.Tier }),
	},
}

var ingestLayout = layout[IngestColumns]{
	name: "ingest",
	cols: []column[IngestColumns]{
		col(IngestColTestID, deltaInts, func(c *IngestColumns) *[]int { return &c.TestID }),
		col(IngestColUserID, deltaInts, func(c *IngestColumns) *[]int { return &c.UserID }),
		col(IngestColCity, dictStrings[string](), func(c *IngestColumns) *[]string { return &c.City }),
		col(IngestColISP, dictStrings[string](), func(c *IngestColumns) *[]string { return &c.ISP }),
		col(IngestColTimestamp, timestamps, func(c *IngestColumns) *[]time.Time { return &c.Timestamp }),
		col(IngestColDownload, rawFloats, func(c *IngestColumns) *[]float64 { return &c.Download }),
		col(IngestColUpload, rawFloats, func(c *IngestColumns) *[]float64 { return &c.Upload }),
		col(IngestColLatency, rawFloats, func(c *IngestColumns) *[]float64 { return &c.Latency }),
		col(IngestColUploadTier, deltaInts, func(c *IngestColumns) *[]int { return &c.UploadTier }),
		col(IngestColTier, deltaInts, func(c *IngestColumns) *[]int { return &c.Tier }),
		col(IngestColConfidence, rawFloats, func(c *IngestColumns) *[]float64 { return &c.Confidence }),
	},
	place: func(c *IngestColumns) ([]string, []int) { return c.City, c.UserID },
}

// rowCount returns the section's row count after checking that every
// column has it.
func (l *layout[S]) rowCount(c *S) (int, error) {
	n := l.cols[0].rows(c)
	for _, f := range l.cols[1:] {
		if m := f.rows(c); m != n {
			return 0, fmt.Errorf("dataset: %s snapshot section: ragged columns (%d vs %d rows)", l.name, m, n)
		}
	}
	return n, nil
}

// encode renders c as a plain section under kind.
func (l *layout[S]) encode(e *snapEnc, kind byte, c *S) error {
	n, err := l.rowCount(c)
	if err != nil {
		return err
	}
	e.section(kind, n)
	return l.encodeColumns(e, c)
}

// encodeColumns emits one block per column, ids 1..N. Zoned encodes call
// it once per row group over sliced columns; every codec restarts per
// payload, so a group decodes exactly like a small section.
func (l *layout[S]) encodeColumns(e *snapEnc, c *S) error {
	for _, f := range l.cols {
		if err := f.encode(e, c); err != nil {
			return err
		}
	}
	return nil
}

// encodeZoned renders c as a zoned v3 section under kind: a zone directory
// recording each row group's placement range and column bounds, then the
// groups' column blocks.
func (l *layout[S]) encodeZoned(e *snapEnc, kind byte, c *S, opts *ZoneOptions) error {
	n, err := l.rowCount(c)
	if err != nil {
		return err
	}
	city, user := l.place(c)
	keys := zoneKeys(opts.Quadkey, city, user)
	spans := zoneGroupSpans(n, opts.blockRows())
	var zb zoneDirBuilder
	zb.header(opts, len(spans))
	groups := make([]*S, len(spans))
	for i, sp := range spans {
		groups[i] = l.slice(c, sp[0], sp[1])
		zb.group(sp[1]-sp[0], keys[sp[0]:sp[1]])
		for _, f := range l.cols {
			f.zone(&zb, groups[i])
		}
	}
	e.section(kind, n)
	e.zoneDir(zb.b)
	for _, g := range groups {
		if err := l.encodeColumns(e, g); err != nil {
			return err
		}
	}
	return nil
}

// zoneKeys derives each row's packed cluster key from its (city, user).
func zoneKeys(key func(city string, userID int) uint64, city []string, user []int) []uint64 {
	keys := make([]uint64, len(user))
	for i := range keys {
		keys[i] = key(city[i], user[i])
	}
	return keys
}

// bind points c at fresh decode slots and binds every selected block of
// one scanned section (or zoned group) to its column.
func (l *layout[S]) bind(s *BlockScanner, ss scanSection, sel ColumnSet, c *S) error {
	*c = *new(S)
	for _, bi := range ss.cols {
		if sel.Has(bi.id) {
			if err := l.cols[bi.id-1].bind(s, bi, ss.rows, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// slice aliases rows [lo, hi) of every column.
func (l *layout[S]) slice(c *S, lo, hi int) *S {
	out := new(S)
	for _, f := range l.cols {
		f.slice(out, c, lo, hi)
	}
	return out
}

// appendBatch folds one batch into the accumulated section columns: the
// first batch is adopted whole, later zoned groups append.
func (l *layout[S]) appendBatch(dst, src *S) *S {
	if dst == nil {
		return src
	}
	for _, f := range l.cols {
		f.appendFrom(dst, src)
	}
	return dst
}

// permute returns a copy of c with rows reordered so row i is c's row
// perm[i]; unselected (nil) columns stay nil.
func (l *layout[S]) permute(c *S, perm []int) *S {
	out := new(S)
	for _, f := range l.cols {
		f.permute(out, c, perm)
	}
	return out
}

// concat appends every part's columns in order into one n-row section —
// the CSV chunk merge.
func (l *layout[S]) concat(parts []*S, n int) *S {
	out := new(S)
	for _, f := range l.cols {
		f.concat(out, parts, n)
	}
	return out
}
