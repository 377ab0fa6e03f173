package dataset

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"speedctx/internal/plans"
)

// The CSV headers, as the layout tables derive them, and the readers with
// an explicit chunk count (<= 0 = auto), which the determinism tests sweep.
var (
	ooklaHeader = csvHeader(&ooklaLayout)
	mlabHeader  = csvHeader(&mlabLayout)
	mbaHeader   = csvHeader(&mbaLayout)

	readOoklaColumns = ooklaLayout.decodeCSV
	readMLabColumns  = mlabLayout.decodeCSV
	readMBAColumns   = mbaLayout.decodeCSV
)

func csvHeader[S, R any](l *layout[S, R]) []string {
	names := make([]string, len(l.cols))
	for i, f := range l.cols {
		names[i] = f.csvName()
	}
	return names
}

// ooklaCSVFixture writes a generated Ookla dataset to CSV once per test
// binary; every decode test parses the same bytes.
func ooklaCSVFixture(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteOoklaCSV(&buf, ColumnizeOokla(GenerateOokla(plans.CityA(), n, 21))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeChunkInvariance is the tentpole's bit-identity gate: decoding
// the same file split into 1, 7 and 64 chunks (and at full parallelism)
// must produce deeply equal columns for all three datasets.
func TestDecodeChunkInvariance(t *testing.T) {
	data := ooklaCSVFixture(t, 500)
	base, err := readOoklaColumns(bytes.NewReader(data), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 7, 64} {
		got, err := readOoklaColumns(bytes.NewReader(data), 0, chunks)
		if err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("ookla columns differ at chunks=%d", chunks)
		}
	}

	var mbuf bytes.Buffer
	if err := WriteMLabCSV(&mbuf, ColumnizeMLabRows(GenerateMLab(plans.CityB(), 400, 22, DefaultMLabOptions()))); err != nil {
		t.Fatal(err)
	}
	mbase, err := readMLabColumns(bytes.NewReader(mbuf.Bytes()), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 7, 64} {
		got, err := readMLabColumns(bytes.NewReader(mbuf.Bytes()), 0, chunks)
		if err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		if !reflect.DeepEqual(mbase, got) {
			t.Fatalf("mlab columns differ at chunks=%d", chunks)
		}
	}

	var bbuf bytes.Buffer
	if err := WriteMBACSV(&bbuf, ColumnizeMBA(GenerateMBA(plans.CityD(), 9, 300, 23))); err != nil {
		t.Fatal(err)
	}
	bbase, err := readMBAColumns(bytes.NewReader(bbuf.Bytes()), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 7, 64} {
		got, err := readMBAColumns(bytes.NewReader(bbuf.Bytes()), 0, chunks)
		if err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		if !reflect.DeepEqual(bbase, got) {
			t.Fatalf("mba columns differ at chunks=%d", chunks)
		}
	}
}

// TestReadCSVParMatchesSerial covers the record view: records rebuilt
// from a parallel column read must reproduce the serial read's exactly.
func TestReadCSVParMatchesSerial(t *testing.T) {
	data := ooklaCSVFixture(t, 300)
	serial, err := ReadOoklaColumns(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReadOoklaColumns(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Records(), par.Records()) {
		t.Fatal("parallel ookla records differ from serial")
	}
}

// TestDecodeQuotedFields forces RFC 4180 quoting — embedded commas,
// quotes, CRLFs and newlines — through the writer and back through the
// chunked decoder, so chunk boundaries must respect quoted regions.
func TestDecodeQuotedFields(t *testing.T) {
	recs := GenerateOokla(plans.CityA(), 120, 5)
	hard := []string{
		"Spring,field",
		`He said "hi" twice`,
		"two\nlines",
		"crlf\r\nline",
		`",",` + "\n",
		"",
	}
	for i := range recs {
		recs[i].City = hard[i%len(hard)]
		recs[i].ISP = hard[(i+3)%len(hard)]
	}
	var buf bytes.Buffer
	if err := WriteOoklaCSV(&buf, ColumnizeOokla(recs)); err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 7, 64} {
		cols, err := readOoklaColumns(bytes.NewReader(buf.Bytes()), 0, chunks)
		if err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		back := cols.Records()
		if len(back) != len(recs) {
			t.Fatalf("chunks=%d: %d rows, want %d", chunks, len(back), len(recs))
		}
		for i := range recs {
			a, b := recs[i], back[i]
			if !a.Timestamp.Equal(b.Timestamp) {
				t.Fatalf("chunks=%d row %d timestamp", chunks, i)
			}
			a.Timestamp = b.Timestamp
			if a != b {
				t.Fatalf("chunks=%d row %d mismatch:\n%+v\n%+v", chunks, i, a, b)
			}
		}
	}
}

// ooklaRowTemplate is a syntactically valid data row; tests substitute one
// field at a time to probe the strict parsers.
var ooklaRowTemplate = []string{
	"1", "2", "A", "ISP", "2021-01-02T03:04:05Z", "Android-App", "wifi",
	"true", "5 GHz", "-50", "100", "2048", "50", "10", "20", "1",
}

func ooklaCSVWithRow(fields []string) string {
	return strings.Join(ooklaHeader, ",") + "\n" + strings.Join(fields, ",") + "\n"
}

// TestDecodeStrictErrors pins the satellite fix: malformed numerics and
// unrecognized enum values — previously discarded with `_` or coerced —
// now fail with an error naming the row and column.
func TestDecodeStrictErrors(t *testing.T) {
	// The template itself parses.
	if _, err := ReadOoklaColumns(strings.NewReader(ooklaCSVWithRow(ooklaRowTemplate)), 1); err != nil {
		t.Fatalf("template row: %v", err)
	}
	cases := []struct {
		field int
		value string
		want  string // substring of the error
	}{
		{0, "x", "test_id"},
		{0, "1.5", "test_id"},
		{1, "", "user_id"},
		{4, "notatime", "timestamp"},
		{4, "2021-02-30T00:00:00Z", "timestamp"}, // normalized-date rejection
		{5, "beos", "platform"},
		{6, "carrier-pigeon", "access"},
		{7, "maybe", "has_radio_info"},
		{8, "3 GHz", "band"},
		{8, "", "band"}, // has_radio_info=true but no band
		{9, "12x", "rssi"},
		{15, "1.5", "truth_tier"},
	}
	for _, tc := range cases {
		row := append([]string(nil), ooklaRowTemplate...)
		row[tc.field] = tc.value
		_, err := ReadOoklaColumns(strings.NewReader(ooklaCSVWithRow(row)), 1)
		if err == nil {
			t.Errorf("field %d = %q: want error, got nil", tc.field, tc.value)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("field %d = %q: error %q does not mention %q", tc.field, tc.value, err, tc.want)
		}
		if !strings.Contains(err.Error(), "row 2") {
			t.Errorf("field %d = %q: error %q does not carry the row number", tc.field, tc.value, err)
		}
	}
	// Band is legitimately empty when has_radio_info=false.
	row := append([]string(nil), ooklaRowTemplate...)
	row[7], row[8] = "false", ""
	if _, err := ReadOoklaColumns(strings.NewReader(ooklaCSVWithRow(row)), 1); err != nil {
		t.Errorf("radio-less row with empty band: %v", err)
	}
	// A band on a radio-less row fails closed: the writer blanks that
	// field, so accepting it would change the data in one read/write cycle.
	row[8] = "5 GHz"
	if _, err := ReadOoklaColumns(strings.NewReader(ooklaCSVWithRow(row)), 1); err == nil ||
		!strings.Contains(err.Error(), "band") || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("radio-less row with a band: %v", err)
	}
	// Header must match exactly.
	bad := strings.Replace(strings.Join(ooklaHeader, ","), "test_id", "row_id", 1) +
		"\n" + strings.Join(ooklaRowTemplate, ",") + "\n"
	if _, err := ReadOoklaColumns(strings.NewReader(bad), 1); err == nil {
		t.Error("foreign header should error")
	}

	// MLab and MBA strict errors.
	mlabBad := strings.Join(mlabHeader, ",") + "\n1,a,b,A,ISP,notanasn,2021-01-01T00:00:00Z,download,1,1,1\n"
	if _, err := ReadMLabColumns(strings.NewReader(mlabBad), 1); err == nil ||
		!strings.Contains(err.Error(), "asn") {
		t.Errorf("mlab bad asn: %v", err)
	}
	mbaBad := strings.Join(mbaHeader, ",") + "\n1,TX,ISP,tract,2021-01-01T00:00:00Z,1,1,bogus,1,1\n"
	if _, err := ReadMBAColumns(strings.NewReader(mbaBad), 1); err == nil ||
		!strings.Contains(err.Error(), "plan_down") {
		t.Errorf("mba bad plan_down: %v", err)
	}
}

// TestDecodeErrorRowNumbering checks the reported row is the 1-based file
// line of the offending record, and that it is identical at every chunk
// count (the first error in file order wins, not the first chunk to fail).
func TestDecodeErrorRowNumbering(t *testing.T) {
	var rows []string
	for i := 0; i < 40; i++ {
		r := append([]string(nil), ooklaRowTemplate...)
		r[0] = fmt.Sprint(i)
		rows = append(rows, strings.Join(r, ","))
	}
	bad := append([]string(nil), ooklaRowTemplate...)
	bad[9] = "zap"
	rows[25] = strings.Join(bad, ",")
	csv := strings.Join(ooklaHeader, ",") + "\n" + strings.Join(rows, "\n") + "\n"

	var msgs []string
	for _, chunks := range []int{1, 7, 64} {
		_, err := readOoklaColumns(strings.NewReader(csv), 0, chunks)
		if err == nil {
			t.Fatalf("chunks=%d: want error", chunks)
		}
		// Row 25 of the data is line 27 of the file (header is line 1).
		if !strings.Contains(err.Error(), "row 27") {
			t.Fatalf("chunks=%d: error %q, want row 27", chunks, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] || msgs[1] != msgs[2] {
		t.Fatalf("error differs across chunk counts: %q", msgs)
	}
}

// TestDecodeMalformedStructure covers structural CSV errors: bare quotes,
// unterminated quotes, wrong field counts, missing header.
func TestDecodeMalformedStructure(t *testing.T) {
	head := strings.Join(ooklaHeader, ",") + "\n"
	for _, tc := range []struct{ name, body string }{
		{"bare quote", head + strings.Replace(strings.Join(ooklaRowTemplate, ","), "ISP", `I"SP`, 1) + "\n"},
		{"unterminated quote", head + `"open`},
		{"short row", head + "1,2,A\n"},
		{"long row", head + strings.Join(ooklaRowTemplate, ",") + ",extra\n"},
		{"no header", "1,2\n"},
		{"empty", ""},
	} {
		if _, err := ReadOoklaColumns(strings.NewReader(tc.body), 1); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	// Trailing blank lines and a missing final newline are fine.
	ok := head + strings.Join(ooklaRowTemplate, ",")
	if _, err := ReadOoklaColumns(strings.NewReader(ok), 1); err != nil {
		t.Errorf("missing final newline: %v", err)
	}
	ok2 := head + strings.Join(ooklaRowTemplate, ",") + "\n\n\n"
	cols, err := ReadOoklaColumns(strings.NewReader(ok2), 1)
	if err != nil || cols.Len() != 1 {
		t.Errorf("trailing blank lines: %v, %v", cols, err)
	}
}

// TestSplitRecordsBounds sanity-checks the chunk splitter directly: bounds
// are increasing, newline-aligned outside quotes, and cover the body.
func TestSplitRecordsBounds(t *testing.T) {
	data := ooklaCSVFixture(t, 200)
	body := data[bytes.IndexByte(data, '\n')+1:]
	for _, chunks := range []int{1, 2, 7, 64} {
		bounds := splitRecords(body, chunks)
		if bounds[0] != 0 || bounds[len(bounds)-1] != len(body) {
			t.Fatalf("chunks=%d: bounds %v do not cover body", chunks, bounds)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] < bounds[i-1] {
				t.Fatalf("chunks=%d: bounds %v not monotonic", chunks, bounds)
			}
			if b := bounds[i]; b > 0 && b < len(body) && body[b-1] != '\n' {
				t.Fatalf("chunks=%d: bound %d not newline-aligned", chunks, b)
			}
		}
	}
}
