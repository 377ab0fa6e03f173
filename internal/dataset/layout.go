package dataset

import (
	"fmt"
	"strconv"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/wifi"
)

// Section layouts: one table per row-section kind of the .sxc format
// (DESIGN.md §10). Each entry names a column's block id, its payload codec
// and the struct field it fills, and every path that walks a section's
// columns reads the table: the plain and zoned encoders, the block
// scanner's binder and column counts, zoned-group slicing, batch
// reassembly, clustering and the CSV chunk merge. The Ookla, M-Lab and
// MBA entries also name their CSV column and record field, for the CSV
// headers, writers and chunk decoders (csv.go, decode.go) and the
// Columnize*/Records conversions. The ingest table names neither: its
// conversions run on the seal path, where a table walk measured 1.3–1.9×
// the hand-written ColumnizeIngest and Rows. Block ids run 1..N in table
// order (TestSectionLayoutIDs), so entry id-1 is the column the binder
// looks up for block id. The sketch section's seven fixed columns are a
// table too; only its eighth block, the bin masses of every row packed
// into one payload, has its own codec (encodeSketchSection,
// decodeSketchSection).

// codec is one column payload encoding: the encoder, the scanner's
// streaming binder, the zone bounds a zoned row group records for the
// column (nil: none — only int and float columns carry bounds), the CSV
// text of row i of col (a *[]T, passed as any so a write binds each column
// once without allocating), and a maker of the strict CSV field parser,
// called once per decoded chunk so string codecs intern within it.
type codec[T any] struct {
	enc    func(b []byte, v []T) ([]byte, error)
	exec   func(s *BlockScanner, bi blockInfo, rows int, slot *[]T) error
	bounds func(z *zoneDirBuilder, v []T)
	text   func(b []byte, col any, i int) []byte
	parser func() func(f []byte) (T, error)
}

func infallible[T any](enc func([]byte, []T) []byte) func([]byte, []T) ([]byte, error) {
	return func(b []byte, v []T) ([]byte, error) { return enc(b, v), nil }
}

// at is row i of col, a *[]T.
func at[T any](col any, i int) T { return (*col.(*[]T))[i] }

func stateless[T any](parse func([]byte) (T, error)) func() func([]byte) (T, error) {
	return func() func([]byte) (T, error) { return parse }
}

var (
	deltaInts = codec[int]{enc: infallible(appendDeltaInts), exec: execInts, bounds: (*zoneDirBuilder).ints,
		text:   func(b []byte, col any, i int) []byte { return strconv.AppendInt(b, int64(at[int](col, i)), 10) },
		parser: stateless(csvInt)}
	rawFloats = codec[float64]{enc: infallible(appendFloats), exec: execFloats, bounds: (*zoneDirBuilder).floats,
		text:   func(b []byte, col any, i int) []byte { return strconv.AppendFloat(b, at[float64](col, i), 'g', -1, 64) },
		parser: stateless(csvFloat)}
	timestamps = codec[time.Time]{enc: appendTimes, exec: execTimes,
		text:   func(b []byte, col any, i int) []byte { return at[time.Time](col, i).AppendFormat(b, time.RFC3339) },
		parser: stateless(csvTime)}
	byteBools = codec[bool]{enc: infallible(appendBools), exec: execBools,
		text:   func(b []byte, col any, i int) []byte { return strconv.AppendBool(b, at[bool](col, i)) },
		parser: stateless(csvBool)}
)

// dictStrings is the dictionary codec of a low-cardinality free-text
// column (city, ISP, state); its CSV parser interns within the chunk.
func dictStrings[T ~string]() codec[T] {
	return codec[T]{enc: infallible(appendStrings[T]), exec: execStrings[T],
		text: func(b []byte, col any, i int) []byte { return appendCSVString(b, string(at[T](col, i))) },
		parser: func() func([]byte) (T, error) {
			seen := map[string]T{}
			return func(f []byte) (T, error) {
				v, ok := seen[string(f)]
				if !ok {
					v = T(f)
					seen[string(v)] = v
				}
				return v, nil
			}
		}}
}

// dictEnum is the dictionary codec of a closed string vocabulary, read
// from CSV by parse.
func dictEnum[T ~string](parse func([]byte) (T, error)) codec[T] {
	c := dictStrings[T]()
	c.parser = stateless(parse)
	return c
}

// byteEnum is the one-byte-per-row codec of an enum column, written to CSV
// as its String form and read back by parse.
func byteEnum[T interface {
	~int
	String() string
}](parse func([]byte) (T, error)) codec[T] {
	return codec[T]{enc: infallible(appendBytes[T]), exec: execBytes[T],
		text:   func(b []byte, col any, i int) []byte { return appendCSVString(b, at[T](col, i).String()) },
		parser: stateless(parse)}
}

// column is one entry of a section layout over the column struct S whose
// rows are the records R.
type column[S, R any] interface {
	blockID() byte
	rows(c *S) int
	payload(b []byte, c *S) ([]byte, error)
	zone(z *zoneDirBuilder, c *S)
	bind(s *BlockScanner, bi blockInfo, rows int, c *S) error
	drop(c *S)
	slice(dst, src *S, lo, hi int)
	appendFrom(dst, src *S)
	permute(dst, src *S, perm []int)
	concat(dst *S, parts []*S, n int)

	csvName() string
	csvText(c *S) (text func(b []byte, col any, i int) []byte, col any)
	csvParser(c *S) func(f []byte) error
	fromRecords(dst *S, recs []R, lo, hi int)
	toRecords(recs []R, src *S, lo, hi int)
}

// field is the column of S that get selects, stored under block id with
// codec c. name is its CSV header and rec its record field (both unset in
// the ingest table). blank, when set, marks rows whose CSV field is written
// and read empty; it may read only columns earlier in the table.
type field[S, R, T any] struct {
	id    byte
	name  string
	c     codec[T]
	get   func(*S) *[]T
	rec   func(*R) *T
	blank func(c *S, row int) bool
	why   string
}

func col[S, R, T any](id byte, name string, c codec[T], get func(*S) *[]T, rec func(*R) *T) *field[S, R, T] {
	return &field[S, R, T]{id: id, name: name, c: c, get: get, rec: rec}
}

// blankWhen sets the blank rule; why names its condition in read errors.
func (f *field[S, R, T]) blankWhen(why string, blank func(c *S, row int) bool) *field[S, R, T] {
	f.why, f.blank = why, blank
	return f
}

// ingestCol is an ingest-table entry: no CSV column, no record mapping.
func ingestCol[T any](id byte, c codec[T], get func(*IngestColumns) *[]T) *field[IngestColumns, IngestRow, T] {
	return &field[IngestColumns, IngestRow, T]{id: id, c: c, get: get}
}

func (f *field[S, R, T]) blockID() byte { return f.id }
func (f *field[S, R, T]) rows(c *S) int { return len(*f.get(c)) }

// payload appends the column's block payload to b.
func (f *field[S, R, T]) payload(b []byte, c *S) ([]byte, error) { return f.c.enc(b, *f.get(c)) }

func (f *field[S, R, T]) zone(z *zoneDirBuilder, c *S) {
	if f.c.bounds == nil {
		z.none()
		return
	}
	f.c.bounds(z, *f.get(c))
}

// bind binds block bi to the column; each batch resizes the column's
// buffer to its rows (growSlice), keeping its capacity.
func (f *field[S, R, T]) bind(s *BlockScanner, bi blockInfo, rows int, c *S) error {
	return f.c.exec(s, bi, rows, f.get(c))
}

func (f *field[S, R, T]) drop(c *S) { *f.get(c) = nil }

func (f *field[S, R, T]) slice(dst, src *S, lo, hi int) { *f.get(dst) = (*f.get(src))[lo:hi] }

// appendFrom concatenates one column across zoned-group batches. The
// first batch is adopted as-is (preserving nil-ness of unselected
// columns); later groups append.
func (f *field[S, R, T]) appendFrom(dst, src *S) {
	d, v := f.get(dst), *f.get(src)
	switch {
	case v == nil:
	case *d == nil:
		*d = v
	default:
		*d = append(*d, v...)
	}
}

func (f *field[S, R, T]) permute(dst, src *S, perm []int) {
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

func (f *field[S, R, T]) concat(dst *S, parts []*S, n int) {
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, *f.get(p)...)
	}
	*f.get(dst) = out
}

func (f *field[S, R, T]) csvName() string { return f.name }

// csvText binds the column's CSV formatter to c for one write:
// text(b, col, i) appends row i's field, unquoted by the separator.
func (f *field[S, R, T]) csvText(c *S) (func(b []byte, col any, i int) []byte, any) {
	if f.blank == nil {
		return f.c.text, f.get(c)
	}
	return func(b []byte, col any, i int) []byte {
		if f.blank(c, i) {
			return b
		}
		return f.c.text(b, col, i)
	}, f.get(c)
}

// csvParser binds a strict parser of this column's CSV fields that
// appends each value to c's column (a field error discards the chunk).
func (f *field[S, R, T]) csvParser(c *S) func(b []byte) error {
	dst, parse := f.get(c), f.c.parser()
	return func(b []byte) (err error) {
		var v T
		switch {
		case f.blank == nil || !f.blank(c, len(*dst)):
			v, err = parse(b)
		case len(b) != 0:
			err = fmt.Errorf("%q on a row with %s, want empty", b, f.why)
		}
		*dst = append(*dst, v)
		return err
	}
}

// fromRecords copies rows [lo, hi) of recs into dst's column, allocating
// it for every record on first use.
func (f *field[S, R, T]) fromRecords(dst *S, recs []R, lo, hi int) {
	if *f.get(dst) == nil {
		*f.get(dst) = make([]T, len(recs))
	}
	out := *f.get(dst)
	for i := lo; i < hi; i++ {
		out[i] = *f.rec(&recs[i])
	}
}

func (f *field[S, R, T]) toRecords(recs []R, src *S, lo, hi int) {
	v := *f.get(src)
	for i := lo; i < hi; i++ {
		*f.rec(&recs[i]) = v[i]
	}
}

// layout is one row-section kind's column table. place, when set, yields
// the (city, user) columns a zoned encode derives row placements from.
type layout[S, R any] struct {
	name  string
	cols  []column[S, R]
	place func(c *S) ([]string, []int)
}

var ooklaLayout = layout[OoklaColumns, OoklaRecord]{
	name: "ookla",
	cols: []column[OoklaColumns, OoklaRecord]{
		col(OoklaColTestID, "test_id", deltaInts,
			func(c *OoklaColumns) *[]int { return &c.TestID }, func(r *OoklaRecord) *int { return &r.TestID }),
		col(OoklaColUserID, "user_id", deltaInts,
			func(c *OoklaColumns) *[]int { return &c.UserID }, func(r *OoklaRecord) *int { return &r.UserID }),
		col(OoklaColCity, "city", dictStrings[string](),
			func(c *OoklaColumns) *[]string { return &c.City }, func(r *OoklaRecord) *string { return &r.City }),
		col(OoklaColISP, "isp", dictStrings[string](),
			func(c *OoklaColumns) *[]string { return &c.ISP }, func(r *OoklaRecord) *string { return &r.ISP }),
		col(OoklaColTimestamp, "timestamp", timestamps,
			func(c *OoklaColumns) *[]time.Time { return &c.Timestamp }, func(r *OoklaRecord) *time.Time { return &r.Timestamp }),
		col(OoklaColPlatform, "platform", byteEnum(csvPlatform),
			func(c *OoklaColumns) *[]device.Platform { return &c.Platform }, func(r *OoklaRecord) *device.Platform { return &r.Platform }),
		col(OoklaColAccess, "access", dictEnum(csvAccess),
			func(c *OoklaColumns) *[]AccessType { return &c.Access }, func(r *OoklaRecord) *AccessType { return &r.Access }),
		col(OoklaColHasRadioInfo, "has_radio_info", byteBools,
			func(c *OoklaColumns) *[]bool { return &c.HasRadioInfo }, func(r *OoklaRecord) *bool { return &r.HasRadioInfo }),
		// The one cross-column CSV rule: rows without radio info carry
		// an empty band field and the zero Band.
		col(OoklaColBand, "band", byteEnum(csvBand),
			func(c *OoklaColumns) *[]wifi.Band { return &c.Band }, func(r *OoklaRecord) *wifi.Band { return &r.Band }).
			blankWhen("has_radio_info=false", func(c *OoklaColumns, row int) bool { return !c.HasRadioInfo[row] }),
		col(OoklaColRSSI, "rssi", rawFloats,
			func(c *OoklaColumns) *[]float64 { return &c.RSSI }, func(r *OoklaRecord) *float64 { return &r.RSSI }),
		col(OoklaColMaxTheoretical, "max_theoretical_mbps", rawFloats,
			func(c *OoklaColumns) *[]float64 { return &c.MaxTheoretical }, func(r *OoklaRecord) *float64 { return &r.MaxTheoreticalMbps }),
		col(OoklaColKernelMemMB, "kernel_mem_mb", deltaInts,
			func(c *OoklaColumns) *[]int { return &c.KernelMemMB }, func(r *OoklaRecord) *int { return &r.KernelMemMB }),
		col(OoklaColDownload, "download_mbps", rawFloats,
			func(c *OoklaColumns) *[]float64 { return &c.Download }, func(r *OoklaRecord) *float64 { return &r.DownloadMbps }),
		col(OoklaColUpload, "upload_mbps", rawFloats,
			func(c *OoklaColumns) *[]float64 { return &c.Upload }, func(r *OoklaRecord) *float64 { return &r.UploadMbps }),
		col(OoklaColLatency, "latency_ms", rawFloats,
			func(c *OoklaColumns) *[]float64 { return &c.Latency }, func(r *OoklaRecord) *float64 { return &r.LatencyMs }),
		col(OoklaColTruthTier, "truth_tier", deltaInts,
			func(c *OoklaColumns) *[]int { return &c.TruthTier }, func(r *OoklaRecord) *int { return &r.TruthTier }),
	},
	place: func(c *OoklaColumns) ([]string, []int) { return c.City, c.UserID },
}

var mlabLayout = layout[MLabRowColumns, MLabRow]{
	name: "mlab",
	cols: []column[MLabRowColumns, MLabRow]{
		col(1, "row_id", deltaInts,
			func(c *MLabRowColumns) *[]int { return &c.RowID }, func(r *MLabRow) *int { return &r.RowID }),
		col(2, "client_ip", dictStrings[string](),
			func(c *MLabRowColumns) *[]string { return &c.ClientIP }, func(r *MLabRow) *string { return &r.ClientIP }),
		col(3, "server_ip", dictStrings[string](),
			func(c *MLabRowColumns) *[]string { return &c.ServerIP }, func(r *MLabRow) *string { return &r.ServerIP }),
		col(4, "city", dictStrings[string](),
			func(c *MLabRowColumns) *[]string { return &c.City }, func(r *MLabRow) *string { return &r.City }),
		col(5, "isp", dictStrings[string](),
			func(c *MLabRowColumns) *[]string { return &c.ISP }, func(r *MLabRow) *string { return &r.ISP }),
		col(6, "asn", deltaInts,
			func(c *MLabRowColumns) *[]int { return &c.ASN }, func(r *MLabRow) *int { return &r.ASN }),
		col(7, "timestamp", timestamps,
			func(c *MLabRowColumns) *[]time.Time { return &c.Timestamp }, func(r *MLabRow) *time.Time { return &r.Timestamp }),
		col(8, "direction", dictEnum(csvDirection),
			func(c *MLabRowColumns) *[]MLabDirection { return &c.Direction }, func(r *MLabRow) *MLabDirection { return &r.Direction }),
		col(9, "speed_mbps", rawFloats,
			func(c *MLabRowColumns) *[]float64 { return &c.Speed }, func(r *MLabRow) *float64 { return &r.SpeedMbps }),
		col(10, "min_rtt_ms", rawFloats,
			func(c *MLabRowColumns) *[]float64 { return &c.MinRTT }, func(r *MLabRow) *float64 { return &r.MinRTTMs }),
		col(11, "truth_tier", deltaInts,
			func(c *MLabRowColumns) *[]int { return &c.TruthTier }, func(r *MLabRow) *int { return &r.TruthTier }),
	},
}

// The MBA plan columns are float64 views of the records' units.Mbps
// fields (same underlying type, so the cast is bit-exact both ways).
var mbaLayout = layout[MBAColumns, MBARecord]{
	name: "mba",
	cols: []column[MBAColumns, MBARecord]{
		col(1, "unit_id", deltaInts,
			func(c *MBAColumns) *[]int { return &c.UnitID }, func(r *MBARecord) *int { return &r.UnitID }),
		col(2, "state", dictStrings[string](),
			func(c *MBAColumns) *[]string { return &c.State }, func(r *MBARecord) *string { return &r.State }),
		col(3, "isp", dictStrings[string](),
			func(c *MBAColumns) *[]string { return &c.ISP }, func(r *MBARecord) *string { return &r.ISP }),
		col(4, "census_tract", dictStrings[string](),
			func(c *MBAColumns) *[]string { return &c.CensusTract }, func(r *MBARecord) *string { return &r.CensusTract }),
		col(5, "timestamp", timestamps,
			func(c *MBAColumns) *[]time.Time { return &c.Timestamp }, func(r *MBARecord) *time.Time { return &r.Timestamp }),
		col(6, "download_mbps", rawFloats,
			func(c *MBAColumns) *[]float64 { return &c.Download }, func(r *MBARecord) *float64 { return &r.DownloadMbps }),
		col(7, "upload_mbps", rawFloats,
			func(c *MBAColumns) *[]float64 { return &c.Upload }, func(r *MBARecord) *float64 { return &r.UploadMbps }),
		col(8, "plan_down_mbps", rawFloats,
			func(c *MBAColumns) *[]float64 { return &c.PlanDown }, func(r *MBARecord) *float64 { return (*float64)(&r.PlanDown) }),
		col(9, "plan_up_mbps", rawFloats,
			func(c *MBAColumns) *[]float64 { return &c.PlanUp }, func(r *MBARecord) *float64 { return (*float64)(&r.PlanUp) }),
		col(10, "tier", deltaInts,
			func(c *MBAColumns) *[]int { return &c.Tier }, func(r *MBARecord) *int { return &r.Tier }),
	},
}

var ingestLayout = layout[IngestColumns, IngestRow]{
	name: "ingest",
	cols: []column[IngestColumns, IngestRow]{
		ingestCol(IngestColTestID, deltaInts, func(c *IngestColumns) *[]int { return &c.TestID }),
		ingestCol(IngestColUserID, deltaInts, func(c *IngestColumns) *[]int { return &c.UserID }),
		ingestCol(IngestColCity, dictStrings[string](), func(c *IngestColumns) *[]string { return &c.City }),
		ingestCol(IngestColISP, dictStrings[string](), func(c *IngestColumns) *[]string { return &c.ISP }),
		ingestCol(IngestColTimestamp, timestamps, func(c *IngestColumns) *[]time.Time { return &c.Timestamp }),
		ingestCol(IngestColDownload, rawFloats, func(c *IngestColumns) *[]float64 { return &c.Download }),
		ingestCol(IngestColUpload, rawFloats, func(c *IngestColumns) *[]float64 { return &c.Upload }),
		ingestCol(IngestColLatency, rawFloats, func(c *IngestColumns) *[]float64 { return &c.Latency }),
		ingestCol(IngestColUploadTier, deltaInts, func(c *IngestColumns) *[]int { return &c.UploadTier }),
		ingestCol(IngestColTier, deltaInts, func(c *IngestColumns) *[]int { return &c.Tier }),
		ingestCol(IngestColConfidence, rawFloats, func(c *IngestColumns) *[]float64 { return &c.Confidence }),
	},
	place: func(c *IngestColumns) ([]string, []int) { return c.City, c.UserID },
}

// sketchColumns is the sketch section's fixed columns, one row per
// SketchBundle.
type sketchColumns struct {
	City    []string
	Tier    []int
	Version []int
	Count   []int
	Bins    []int
	Lo      []float64
	Hi      []float64
}

// sketchCol is a sketch-table entry: no CSV column, no record mapping.
func sketchCol[T any](id byte, c codec[T], get func(*sketchColumns) *[]T) *field[sketchColumns, SketchBundle, T] {
	return &field[sketchColumns, SketchBundle, T]{id: id, c: c, get: get}
}

// sketchLayout is blocks 1–7 of the sketch section. Block 8, the masses,
// follows outside the table: its rows are variable-length, partitioned
// by the Bins column.
var sketchLayout = layout[sketchColumns, SketchBundle]{
	name: "sketch",
	cols: []column[sketchColumns, SketchBundle]{
		sketchCol(1, dictStrings[string](), func(c *sketchColumns) *[]string { return &c.City }),
		sketchCol(2, deltaInts, func(c *sketchColumns) *[]int { return &c.Tier }),
		sketchCol(3, deltaInts, func(c *sketchColumns) *[]int { return &c.Version }),
		sketchCol(4, deltaInts, func(c *sketchColumns) *[]int { return &c.Count }),
		sketchCol(5, deltaInts, func(c *sketchColumns) *[]int { return &c.Bins }),
		sketchCol(6, rawFloats, func(c *sketchColumns) *[]float64 { return &c.Lo }),
		sketchCol(7, rawFloats, func(c *sketchColumns) *[]float64 { return &c.Hi }),
	},
}

// rowCount returns the section's row count after checking that every
// column has it.
func (l *layout[S, R]) rowCount(c *S) (int, error) {
	n := l.cols[0].rows(c)
	for _, f := range l.cols[1:] {
		if m := f.rows(c); m != n {
			return 0, fmt.Errorf("dataset: %s columns are ragged (%d vs %d rows)", l.name, m, n)
		}
	}
	return n, nil
}

// encode renders c as a plain section under kind.
func (l *layout[S, R]) encode(e *snapEnc, kind byte, c *S) error {
	n, err := l.rowCount(c)
	if err != nil {
		return err
	}
	e.section(kind, n)
	return l.encodeColumns(e, c, l.lengthWidths(n))
}

// encodeColumns emits one block per column, ids 1..N, each payload
// encoded straight into the image. widths[i] is the uvarint width column
// i's payload length is expected to take, which the column's block
// updates. The zoned writer calls it once per row group; every codec
// restarts per payload, so a group decodes exactly like a small section.
func (l *layout[S, R]) encodeColumns(e *snapEnc, c *S, widths []int) error {
	for i, f := range l.cols {
		at, b := e.openBlock(widths[i])
		b, err := f.payload(b, c)
		if err != nil {
			return err
		}
		e.closeBlock(f.blockID(), at, &widths[i], b)
	}
	return nil
}

// lengthWidths is every column's first guess at its payload length's
// uvarint width over rows rows: that of two bytes a row.
func (l *layout[S, R]) lengthWidths(rows int) []int {
	w := make([]int, len(l.cols))
	for i := range w {
		w[i] = uvarintLen(uint64(2 * rows))
	}
	return w
}

// encodeZoned renders c as a zoned v3 section under kind through the
// group writer, one row group of sliced columns at a time.
func (l *layout[S, R]) encodeZoned(e *snapEnc, kind byte, c *S, opts *ZoneOptions) error {
	n, err := l.rowCount(c)
	if err != nil {
		return err
	}
	city, user := l.place(c)
	w := newZonedWriter(l, e, kind, n, opts, 0)
	keys := make([]uint64, 0, min(n, opts.blockRows()))
	for _, sp := range zoneGroupSpans(n, opts.blockRows()) {
		keys = keys[:0]
		for i := sp[0]; i < sp[1]; i++ {
			keys = append(keys, opts.Quadkey(city[i], user[i]))
		}
		if err := w.group(l.slice(c, sp[0], sp[1]), keys); err != nil {
			return err
		}
	}
	return w.finish()
}

// zoneKeys derives each row's packed cluster key from its (city, user).
func zoneKeys(key func(city string, userID int) uint64, city []string, user []int) []uint64 {
	keys := make([]uint64, len(user))
	for i := range keys {
		keys[i] = key(city[i], user[i])
	}
	return keys
}

// bind binds every selected block of one scanned section (or zoned
// group) to its column of c, which keeps the buffer it held for an
// earlier section, and nils every unselected column.
func (l *layout[S, R]) bind(s *BlockScanner, ss scanSection, sel ColumnSet, c *S) error {
	for _, bi := range ss.cols {
		f := l.cols[bi.id-1]
		if !sel.Has(bi.id) {
			f.drop(c)
			continue
		}
		if err := f.bind(s, bi, ss.rows, c); err != nil {
			return err
		}
	}
	return nil
}

// slice aliases rows [lo, hi) of every column.
func (l *layout[S, R]) slice(c *S, lo, hi int) *S {
	out := new(S)
	for _, f := range l.cols {
		f.slice(out, c, lo, hi)
	}
	return out
}

// appendBatch folds one batch into the accumulated section columns: the
// first batch is adopted whole, later zoned groups append.
func (l *layout[S, R]) appendBatch(dst, src *S) *S {
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
func (l *layout[S, R]) permute(c *S, perm []int) *S {
	out := new(S)
	for _, f := range l.cols {
		f.permute(out, c, perm)
	}
	return out
}

// concat appends every part's columns in order into one n-row section —
// the CSV chunk merge.
func (l *layout[S, R]) concat(parts []*S, n int) *S {
	out := new(S)
	for _, f := range l.cols {
		f.concat(out, parts, n)
	}
	return out
}

// convertRows is the block of records the conversions walk the table
// over, so each record streams through the cache once, not once per column.
const convertRows = 256

// columnize extracts every column of recs.
func (l *layout[S, R]) columnize(recs []R) *S {
	c := new(S)
	for lo := 0; lo == 0 || lo < len(recs); lo += convertRows {
		for _, f := range l.cols {
			f.fromRecords(c, recs, lo, min(lo+convertRows, len(recs)))
		}
	}
	return c
}

// records materializes the first n rows of c: the inverse of columnize.
func (l *layout[S, R]) records(c *S, n int) []R {
	recs := make([]R, n)
	for lo := 0; lo < n; lo += convertRows {
		for _, f := range l.cols {
			f.toRecords(recs, c, lo, min(lo+convertRows, n))
		}
	}
	return recs
}
