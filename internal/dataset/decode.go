package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"speedctx/internal/device"
	"speedctx/internal/parallel"
	"speedctx/internal/wifi"
)

// Parallel CSV decode (PR 5): the read-side twin of the zero-alloc writers
// in csv.go. The input is read once, split on newline-aligned chunk
// boundaries (quote-parity-aware, so a boundary can never land inside a
// quoted field), and the chunks are decoded concurrently on the
// internal/parallel pool. Each chunk parses its records with a streaming
// field scanner straight into columnar (SoA) buffers, through one strict
// parser per column of the format's layout table (layout.go) bound once
// per chunk, and the per-chunk columns are concatenated in chunk order.
// Because every record lies in exactly one chunk and record decoding is
// pure, the assembled output (and the first reported parse error) is
// bit-identical to a serial parse at every worker and chunk count.
//
// The decoders are strict: a malformed numeric field, an unknown
// platform/access/direction or WiFi band, or a band on a row without radio
// info fails with an error naming the row and column instead of being
// silently zeroed or coerced. Row numbers are 1-based file lines (the
// header is line 1).

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

// chunkPart is one chunk's decode result: partial columns, the number of
// rows decoded before any error, and the error itself (rows then indexes
// the failing row within the chunk).
type chunkPart[S any] struct {
	cols *S
	rows int
	err  error
}

// decodeCSV is the chunked-decode pipeline over one table: read
// everything, verify the header field by field against the table's CSV
// names, split the body into record-aligned chunks, decode them
// concurrently, and merge in chunk order. chunks <= 0 selects an automatic
// count from the body size and worker count; any explicit count yields
// the identical result.
func (l *layout[S, R]) decodeCSV(r io.Reader, par, chunks int) (*S, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	sc := rowScanner{data: data}
	switch ok, err := sc.next(len(l.cols)); {
	case err != nil:
		return nil, fmt.Errorf("dataset: %s csv header: %w", l.name, err)
	case !ok:
		return nil, fmt.Errorf("dataset: empty %s csv", l.name)
	}
	for i, f := range l.cols {
		if string(sc.fields[i]) != f.csvName() {
			return nil, fmt.Errorf("dataset: %s csv header field %d is %q, want %q", l.name, i+1, sc.fields[i], f.csvName())
		}
	}
	body := data[sc.pos:]
	if chunks <= 0 {
		chunks = autoChunks(len(body), par)
	}
	bounds := splitRecords(body, chunks)
	parts := parallel.Map(par, len(bounds)-1, func(i int) chunkPart[S] {
		return l.decodeChunk(body[bounds[i]:bounds[i+1]])
	})
	total := 0
	cols := make([]*S, len(parts))
	for i, p := range parts {
		if p.err != nil {
			// Chunks are decoded in record order, so the first failing
			// chunk's first failing row is the file's first bad row. +2
			// maps the 0-based data row to its 1-based file line (the
			// header is line 1).
			return nil, fmt.Errorf("dataset: %s row %d: %w", l.name, total+p.rows+2, p.err)
		}
		cols[i] = p.cols
		total += p.rows
	}
	return l.concat(cols, total), nil
}

// decodeChunk decodes one chunk into partial columns, binding one strict
// parser per column for the chunk. A row's leftmost bad field fails it,
// wrapped with the column name.
func (l *layout[S, R]) decodeChunk(data []byte) chunkPart[S] {
	c := new(S)
	parsers := make([]func([]byte) error, len(l.cols))
	for j, f := range l.cols {
		parsers[j] = f.csvParser(c)
	}
	sc := rowScanner{data: data}
	for row := 0; ; row++ {
		ok, err := sc.next(len(parsers))
		if err != nil {
			return chunkPart[S]{rows: row, err: err}
		}
		if !ok {
			return chunkPart[S]{cols: c, rows: row}
		}
		for j, parse := range parsers {
			if err := parse(sc.fields[j]); err != nil {
				return chunkPart[S]{rows: row, err: fmt.Errorf("%s: %w", l.cols[j].csvName(), err)}
			}
		}
	}
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

var platformByName = func() map[string]device.Platform {
	m := map[string]device.Platform{}
	for _, p := range device.Platforms() {
		m[p.String()] = p
	}
	return m
}()

func csvPlatform(f []byte) (device.Platform, error) {
	if p, ok := platformByName[string(f)]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("unknown platform %q", f)
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

// csvBand parses the WiFi band of a row with radio info: unknown strings
// are an error, not a silent 5 GHz coercion. (Radio-less rows carry an
// empty band, which the band entry's blank rule in ooklaLayout enforces.)
func csvBand(f []byte) (wifi.Band, error) {
	switch string(f) {
	case "":
		return 0, errors.New("missing wifi band")
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

// ReadOoklaColumns parses the speedctx Ookla CSV format straight into
// columnar form — no intermediate row structs — decoding newline-aligned
// chunks concurrently over par workers (parallel.Workers semantics: 0 =
// all CPUs, 1 = serial). Output is bit-identical at every setting.
// Malformed numeric fields and unrecognized platform/access/band values
// fail with a row-numbered error; Records converts to row form.
func ReadOoklaColumns(r io.Reader, par int) (*OoklaColumns, error) {
	return ooklaLayout.decodeCSV(r, par, 0)
}

// ReadMLabColumns parses NDT rows straight into columnar form; see
// ReadOoklaColumns for the concurrency contract.
func ReadMLabColumns(r io.Reader, par int) (*MLabRowColumns, error) {
	return mlabLayout.decodeCSV(r, par, 0)
}

// ReadMBAColumns parses MBA records straight into columnar form; see
// ReadOoklaColumns for the concurrency contract.
func ReadMBAColumns(r io.Reader, par int) (*MBAColumns, error) {
	return mbaLayout.decodeCSV(r, par, 0)
}
