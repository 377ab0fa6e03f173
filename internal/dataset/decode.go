package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"speedctx/internal/parallel"
	"speedctx/internal/wifi"
)

// Parallel CSV decode (PR 5): the read-side twin of the zero-alloc writers
// in csv.go. The input is read once, split on newline-aligned chunk
// boundaries (quote-parity-aware, so a boundary can never land inside a
// quoted field), and the chunks are decoded concurrently on the
// internal/parallel pool. Each chunk parses its records with a streaming
// field scanner straight into columnar (SoA) buffers — no [][]string
// materialization and no intermediate row structs — and the per-chunk
// columns are concatenated in chunk order. Because every record lies in
// exactly one chunk and record decoding is pure, the assembled output (and
// the first reported parse error) is bit-identical to a serial parse at
// every worker count and every chunk count.
//
// Unlike the pre-PR 5 readers, the decoders are strict: a malformed
// numeric field, unknown platform/access/direction, or unrecognized WiFi
// band string fails with a row-numbered error instead of being silently
// zeroed or coerced. Row numbers are 1-based file lines (the header is
// line 1), matching the historical error convention.

// minChunkBytes floors the per-chunk input size so tiny files do not pay
// fan-out overhead for a handful of rows.
const minChunkBytes = 64 << 10

// autoChunks picks the chunk count for an n-byte body at parallelism par:
// a few chunks per worker for load balance, floored by minChunkBytes.
func autoChunks(n, par int) int {
	w := parallel.Workers(par)
	if w <= 1 {
		return 1
	}
	chunks := 4 * w
	if byBytes := n / minChunkBytes; chunks > byBytes {
		chunks = byBytes
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// splitRecords returns len(bounds)-1 >= 1 half-open chunk boundaries into
// body such that every boundary is a record start: the offset just past a
// newline that lies outside any quoted field. Boundaries are a pure
// function of (body, chunks), never of scheduling.
func splitRecords(body []byte, chunks int) []int {
	if chunks < 1 {
		chunks = 1
	}
	bounds := make([]int, 1, chunks+1)
	pos := 0 // last boundary; always a record start, so quote parity 0
	for c := 1; c < chunks && pos < len(body); c++ {
		target := len(body) * c / chunks
		if target < pos {
			target = pos
		}
		parity := bytes.Count(body[pos:target], []byte{'"'}) & 1
		nb := nextRecordStart(body, target, parity)
		if nb >= len(body) {
			break
		}
		if nb > pos {
			bounds = append(bounds, nb)
			pos = nb
		}
	}
	return append(bounds, len(body))
}

// nextRecordStart returns the offset just past the first record-terminating
// newline at or after from, given the quote parity accumulated between the
// previous record start and from. Newlines inside quoted fields have odd
// parity and are skipped.
func nextRecordStart(body []byte, from, parity int) int {
	for i := from; i < len(body); i++ {
		switch body[i] {
		case '"':
			parity ^= 1
		case '\n':
			if parity == 0 {
				return i + 1
			}
		}
	}
	return len(body)
}

// rowScanner streams RFC 4180 records out of one chunk. Unquoted fields
// are returned as subslices of the input; quoted fields are unescaped into
// a reused scratch buffer. fields is reused across records, so callers
// must consume a record before scanning the next.
type rowScanner struct {
	data    []byte
	pos     int
	fields  [][]byte
	scratch []byte
}

// next scans the next record into s.fields, requiring exactly want fields.
// It returns false at end of input. Blank lines are skipped, matching
// encoding/csv.
func (s *rowScanner) next(want int) (bool, error) {
	data := s.data
	for s.pos < len(data) {
		if data[s.pos] == '\n' {
			s.pos++
			continue
		}
		if data[s.pos] == '\r' && s.pos+1 < len(data) && data[s.pos+1] == '\n' {
			s.pos += 2
			continue
		}
		break
	}
	if s.pos >= len(data) {
		return false, nil
	}
	s.fields = s.fields[:0]
	s.scratch = s.scratch[:0]
	for {
		field, sep, err := s.scanField()
		if err != nil {
			return false, err
		}
		s.fields = append(s.fields, field)
		if sep != ',' {
			break
		}
	}
	if len(s.fields) != want {
		return false, fmt.Errorf("has %d fields, want %d", len(s.fields), want)
	}
	return true, nil
}

// scanField scans one field and reports the separator that ended it: ','
// within a record, '\n' at a record end, 0 at end of input.
func (s *rowScanner) scanField() ([]byte, byte, error) {
	data, i := s.data, s.pos
	if i < len(data) && data[i] == '"' {
		i++
		start := len(s.scratch)
		for i < len(data) {
			c := data[i]
			if c != '"' {
				s.scratch = append(s.scratch, c)
				i++
				continue
			}
			if i+1 < len(data) && data[i+1] == '"' { // escaped quote
				s.scratch = append(s.scratch, '"')
				i += 2
				continue
			}
			i++ // closing quote
			f := s.scratch[start:]
			switch {
			case i >= len(data):
				s.pos = i
				return f, 0, nil
			case data[i] == ',':
				s.pos = i + 1
				return f, ',', nil
			case data[i] == '\n':
				s.pos = i + 1
				return f, '\n', nil
			case data[i] == '\r' && i+1 < len(data) && data[i+1] == '\n':
				s.pos = i + 2
				return f, '\n', nil
			}
			return nil, 0, fmt.Errorf("unexpected %q after quoted field", data[i])
		}
		return nil, 0, errors.New(`unterminated quoted field`)
	}
	start := i
	for i < len(data) {
		switch data[i] {
		case ',':
			s.pos = i + 1
			return data[start:i], ',', nil
		case '\n':
			s.pos = i + 1
			return trimCR(data[start:i]), '\n', nil
		case '"':
			return nil, 0, errors.New(`bare " in unquoted field`)
		}
		i++
	}
	s.pos = len(data)
	return trimCR(data[start:]), 0, nil
}

func trimCR(f []byte) []byte {
	if n := len(f); n > 0 && f[n-1] == '\r' {
		return f[:n-1]
	}
	return f
}

// checkHeader scans the header record and verifies it field-for-field,
// returning the record body that follows it.
func checkHeader(data []byte, name string, header []string) ([]byte, error) {
	sc := rowScanner{data: data}
	ok, err := sc.next(len(header))
	if err != nil {
		return nil, fmt.Errorf("dataset: %s csv header: %w", name, err)
	}
	if !ok {
		return nil, fmt.Errorf("dataset: empty %s csv", name)
	}
	for i, want := range header {
		if string(sc.fields[i]) != want {
			return nil, fmt.Errorf("dataset: %s csv header field %d is %q, want %q", name, i+1, sc.fields[i], want)
		}
	}
	return data[sc.pos:], nil
}

// chunkPart is one chunk's decode result: partial columns, the number of
// rows decoded before any error, and the error itself (rows then indexes
// the failing row within the chunk).
type chunkPart[C any] struct {
	cols C
	rows int
	err  error
}

// decodeCSV is the shared chunked-decode pipeline: read everything, verify
// the header, split the body into record-aligned chunks, decode them
// concurrently, and merge in chunk order. chunks <= 0 selects an automatic
// count from the body size and worker count; any explicit count yields the
// identical result.
func decodeCSV[C any](r io.Reader, par, chunks int, name string, header []string,
	decodeChunk func(data []byte) (C, int, error),
	merge func(parts []C, rows int) C) (C, error) {
	var zero C
	data, err := io.ReadAll(r)
	if err != nil {
		return zero, err
	}
	if len(data) == 0 {
		return zero, fmt.Errorf("dataset: empty %s csv", name)
	}
	body, err := checkHeader(data, name, header)
	if err != nil {
		return zero, err
	}
	if chunks <= 0 {
		chunks = autoChunks(len(body), par)
	}
	bounds := splitRecords(body, chunks)
	parts := parallel.Map(par, len(bounds)-1, func(i int) chunkPart[C] {
		cols, rows, err := decodeChunk(body[bounds[i]:bounds[i+1]])
		return chunkPart[C]{cols: cols, rows: rows, err: err}
	})
	total := 0
	cols := make([]C, len(parts))
	for i, p := range parts {
		if p.err != nil {
			// Chunks are decoded in record order, so the first failing
			// chunk's first failing row is the file's first bad row. +2
			// maps the 0-based data row to its 1-based file line (the
			// header is line 1).
			return zero, fmt.Errorf("dataset: %s row %d: %w", name, total+p.rows+2, p.err)
		}
		cols[i] = p.cols
		total += p.rows
	}
	return merge(cols, total), nil
}

// Strict field parsers. Each returns a bare error; the chunk decoder wraps
// it with the column name, and decodeCSV wraps that with the row number.

func csvInt(f []byte) (int, error) {
	i, neg := 0, false
	if len(f) > 0 && (f[0] == '-' || f[0] == '+') {
		neg = f[0] == '-'
		i = 1
	}
	if i == len(f) {
		return 0, fmt.Errorf("invalid integer %q", f)
	}
	n := 0
	for ; i < len(f); i++ {
		d := f[i] - '0'
		if d > 9 {
			return 0, fmt.Errorf("invalid integer %q", f)
		}
		if n > ((1<<63-1)-int(d))/10 {
			return 0, fmt.Errorf("integer %q overflows", f)
		}
		n = n*10 + int(d)
	}
	if neg {
		n = -n
	}
	return n, nil
}

func csvFloat(f []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(f), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid float %q", f)
	}
	return v, nil
}

func csvBool(f []byte) (bool, error) {
	v, err := strconv.ParseBool(string(f))
	if err != nil {
		return false, fmt.Errorf("invalid bool %q", f)
	}
	return v, nil
}

// csvTime parses an RFC 3339 timestamp. The generated datasets always use
// the 20-byte "2006-01-02T15:04:05Z" shape, which a direct digit parse
// handles several times faster than time.Parse; other shapes (numeric
// zone offsets, fractional seconds) take the full parser. Both paths
// produce the identical time.Time representation for UTC instants.
func csvTime(f []byte) (time.Time, error) {
	if len(f) == 20 && f[4] == '-' && f[7] == '-' && f[10] == 'T' &&
		f[13] == ':' && f[16] == ':' && f[19] == 'Z' {
		year, ok1 := csvDigits(f[0:4])
		month, ok2 := csvDigits(f[5:7])
		day, ok3 := csvDigits(f[8:10])
		hour, ok4 := csvDigits(f[11:13])
		min, ok5 := csvDigits(f[14:16])
		sec, ok6 := csvDigits(f[17:19])
		if ok1 && ok2 && ok3 && ok4 && ok5 && ok6 &&
			hour < 24 && min < 60 && sec < 60 {
			t := time.Date(year, time.Month(month), day, hour, min, sec, 0, time.UTC)
			// time.Date normalizes out-of-range components (Feb 30 ->
			// Mar 2); reject anything that did not survive verbatim, the
			// way time.Parse would.
			if int(t.Month()) == month && t.Day() == day {
				return t, nil
			}
		}
		return time.Time{}, fmt.Errorf("invalid timestamp %q", f)
	}
	t, err := time.Parse(time.RFC3339, string(f))
	if err != nil {
		return time.Time{}, fmt.Errorf("invalid timestamp %q", f)
	}
	return t, nil
}

// csvDigits parses an all-digit field.
func csvDigits(f []byte) (int, bool) {
	n := 0
	for _, c := range f {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

func csvAccess(f []byte) (AccessType, error) {
	switch string(f) {
	case "wifi":
		return AccessWiFi, nil
	case "ethernet":
		return AccessEthernet, nil
	case "unknown":
		return AccessUnknown, nil
	}
	return "", fmt.Errorf("unknown access type %q", f)
}

// csvBand parses the WiFi band column. Rows without radio info carry an
// empty band field (and keep the zero Band); rows with radio info must
// name a recognized band — unknown strings are an error, not a silent
// 5 GHz coercion.
func csvBand(f []byte, hasRadio bool) (wifi.Band, error) {
	if len(f) == 0 {
		if hasRadio {
			return 0, errors.New("missing wifi band")
		}
		return 0, nil
	}
	switch string(f) {
	case "2.4 GHz":
		return wifi.Band24GHz, nil
	case "5 GHz":
		return wifi.Band5GHz, nil
	}
	return 0, fmt.Errorf("unknown wifi band %q", f)
}

func csvDirection(f []byte) (MLabDirection, error) {
	switch string(f) {
	case "download":
		return MLabDownload, nil
	case "upload":
		return MLabUpload, nil
	}
	return "", fmt.Errorf("bad direction %q", f)
}

// interner dedupes the low-cardinality string columns (city, ISP, state)
// within a chunk so n rows share a handful of string allocations.
type interner map[string]string

func (m interner) intern(b []byte) string {
	if s, ok := m[string(b)]; ok {
		return s
	}
	s := string(b)
	m[s] = s
	return s
}

// fieldReader wraps one scanned record with column-named strict accessors.
// The first failing field latches its error; later accessors of the same
// record are no-ops, so every row reports its leftmost bad column.
type fieldReader struct {
	fields [][]byte
	err    error
}

func (f *fieldReader) fail(col string, err error) {
	if f.err == nil {
		f.err = fmt.Errorf("%s: %w", col, err)
	}
}

func (f *fieldReader) int(i int, col string) int {
	if f.err != nil {
		return 0
	}
	v, err := csvInt(f.fields[i])
	if err != nil {
		f.fail(col, err)
	}
	return v
}

func (f *fieldReader) float(i int, col string) float64 {
	if f.err != nil {
		return 0
	}
	v, err := csvFloat(f.fields[i])
	if err != nil {
		f.fail(col, err)
	}
	return v
}

func (f *fieldReader) bool(i int, col string) bool {
	if f.err != nil {
		return false
	}
	v, err := csvBool(f.fields[i])
	if err != nil {
		f.fail(col, err)
	}
	return v
}

func (f *fieldReader) time(i int, col string) time.Time {
	if f.err != nil {
		return time.Time{}
	}
	v, err := csvTime(f.fields[i])
	if err != nil {
		f.fail(col, err)
	}
	return v
}

// ooklaChunk decodes one chunk of Ookla rows into partial columns.
func ooklaChunk(data []byte) (*OoklaColumns, int, error) {
	c := &OoklaColumns{}
	sc := rowScanner{data: data}
	in := interner{}
	for row := 0; ; row++ {
		ok, err := sc.next(len(ooklaHeader))
		if err != nil {
			return nil, row, err
		}
		if !ok {
			return c, row, nil
		}
		fr := fieldReader{fields: sc.fields}
		testID := fr.int(0, "test_id")
		userID := fr.int(1, "user_id")
		city := in.intern(sc.fields[2])
		isp := in.intern(sc.fields[3])
		ts := fr.time(4, "timestamp")
		p, okp := platformByName[string(sc.fields[5])]
		if !okp && fr.err == nil {
			fr.fail("platform", fmt.Errorf("unknown platform %q", sc.fields[5]))
		}
		access := AccessType("")
		if fr.err == nil {
			if access, err = csvAccess(sc.fields[6]); err != nil {
				fr.fail("access", err)
			}
		}
		hasRadio := fr.bool(7, "has_radio_info")
		var band wifi.Band
		if fr.err == nil {
			if band, err = csvBand(sc.fields[8], hasRadio); err != nil {
				fr.fail("band", err)
			}
		}
		rssi := fr.float(9, "rssi")
		maxTheo := fr.float(10, "max_theoretical_mbps")
		kmem := fr.int(11, "kernel_mem_mb")
		down := fr.float(12, "download_mbps")
		up := fr.float(13, "upload_mbps")
		lat := fr.float(14, "latency_ms")
		tier := fr.int(15, "truth_tier")
		if fr.err != nil {
			return nil, row, fr.err
		}
		c.TestID = append(c.TestID, testID)
		c.UserID = append(c.UserID, userID)
		c.City = append(c.City, city)
		c.ISP = append(c.ISP, isp)
		c.Timestamp = append(c.Timestamp, ts)
		c.Platform = append(c.Platform, p)
		c.Access = append(c.Access, access)
		c.HasRadioInfo = append(c.HasRadioInfo, hasRadio)
		c.Band = append(c.Band, band)
		c.RSSI = append(c.RSSI, rssi)
		c.MaxTheoretical = append(c.MaxTheoretical, maxTheo)
		c.KernelMemMB = append(c.KernelMemMB, kmem)
		c.Download = append(c.Download, down)
		c.Upload = append(c.Upload, up)
		c.Latency = append(c.Latency, lat)
		c.TruthTier = append(c.TruthTier, tier)
	}
}

// mlabChunk decodes one chunk of NDT rows into partial columns.
func mlabChunk(data []byte) (*MLabRowColumns, int, error) {
	c := &MLabRowColumns{}
	sc := rowScanner{data: data}
	in := interner{}
	for row := 0; ; row++ {
		ok, err := sc.next(len(mlabHeader))
		if err != nil {
			return nil, row, err
		}
		if !ok {
			return c, row, nil
		}
		fr := fieldReader{fields: sc.fields}
		rowID := fr.int(0, "row_id")
		clientIP := in.intern(sc.fields[1])
		serverIP := in.intern(sc.fields[2])
		city := in.intern(sc.fields[3])
		isp := in.intern(sc.fields[4])
		asn := fr.int(5, "asn")
		ts := fr.time(6, "timestamp")
		var dir MLabDirection
		if fr.err == nil {
			if dir, err = csvDirection(sc.fields[7]); err != nil {
				fr.fail("direction", err)
			}
		}
		speed := fr.float(8, "speed_mbps")
		minRTT := fr.float(9, "min_rtt_ms")
		tier := fr.int(10, "truth_tier")
		if fr.err != nil {
			return nil, row, fr.err
		}
		c.RowID = append(c.RowID, rowID)
		c.ClientIP = append(c.ClientIP, clientIP)
		c.ServerIP = append(c.ServerIP, serverIP)
		c.City = append(c.City, city)
		c.ISP = append(c.ISP, isp)
		c.ASN = append(c.ASN, asn)
		c.Timestamp = append(c.Timestamp, ts)
		c.Direction = append(c.Direction, dir)
		c.Speed = append(c.Speed, speed)
		c.MinRTT = append(c.MinRTT, minRTT)
		c.TruthTier = append(c.TruthTier, tier)
	}
}

// mbaChunk decodes one chunk of MBA rows into partial columns.
func mbaChunk(data []byte) (*MBAColumns, int, error) {
	c := &MBAColumns{}
	sc := rowScanner{data: data}
	in := interner{}
	for row := 0; ; row++ {
		ok, err := sc.next(len(mbaHeader))
		if err != nil {
			return nil, row, err
		}
		if !ok {
			return c, row, nil
		}
		fr := fieldReader{fields: sc.fields}
		unitID := fr.int(0, "unit_id")
		state := in.intern(sc.fields[1])
		isp := in.intern(sc.fields[2])
		tract := in.intern(sc.fields[3])
		ts := fr.time(4, "timestamp")
		down := fr.float(5, "download_mbps")
		up := fr.float(6, "upload_mbps")
		planDown := fr.float(7, "plan_down_mbps")
		planUp := fr.float(8, "plan_up_mbps")
		tier := fr.int(9, "tier")
		if fr.err != nil {
			return nil, row, fr.err
		}
		c.UnitID = append(c.UnitID, unitID)
		c.State = append(c.State, state)
		c.ISP = append(c.ISP, isp)
		c.CensusTract = append(c.CensusTract, tract)
		c.Timestamp = append(c.Timestamp, ts)
		c.Download = append(c.Download, down)
		c.Upload = append(c.Upload, up)
		c.PlanDown = append(c.PlanDown, planDown)
		c.PlanUp = append(c.PlanUp, planUp)
		c.Tier = append(c.Tier, tier)
	}
}

// readOoklaColumns is ReadOoklaColumns with an explicit chunk count (<= 0 =
// auto); the determinism tests sweep it.
func readOoklaColumns(r io.Reader, par, chunks int) (*OoklaColumns, error) {
	return decodeCSV(r, par, chunks, "ookla", ooklaHeader, ooklaChunk, ooklaLayout.concat)
}

func readMLabColumns(r io.Reader, par, chunks int) (*MLabRowColumns, error) {
	return decodeCSV(r, par, chunks, "mlab", mlabHeader, mlabChunk, mlabLayout.concat)
}

func readMBAColumns(r io.Reader, par, chunks int) (*MBAColumns, error) {
	return decodeCSV(r, par, chunks, "mba", mbaHeader, mbaChunk, mbaLayout.concat)
}

// ReadOoklaColumns parses the speedctx Ookla CSV format straight into
// columnar form — no intermediate row structs — decoding newline-aligned
// chunks concurrently over par workers (parallel.Workers semantics: 0 =
// all CPUs, 1 = serial). Output is bit-identical at every setting.
// Malformed numeric fields and unrecognized platform/access/band values
// fail with a row-numbered error; Records converts to row form.
func ReadOoklaColumns(r io.Reader, par int) (*OoklaColumns, error) {
	return readOoklaColumns(r, par, 0)
}

// ReadMLabColumns parses NDT rows straight into columnar form; see
// ReadOoklaColumns for the concurrency contract.
func ReadMLabColumns(r io.Reader, par int) (*MLabRowColumns, error) {
	return readMLabColumns(r, par, 0)
}

// ReadMBAColumns parses MBA records straight into columnar form; see
// ReadOoklaColumns for the concurrency contract.
func ReadMBAColumns(r io.Reader, par int) (*MBAColumns, error) {
	return readMBAColumns(r, par, 0)
}
