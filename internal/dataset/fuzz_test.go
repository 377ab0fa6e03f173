package dataset

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"speedctx/internal/plans"
)

// Fuzz targets for the CSV parsers: whatever bytes arrive, the readers must
// either return an error or well-formed columns — never panic — and input
// that parses must be a fixpoint of write → read → write. `go test` runs
// the seed corpus; `go test -fuzz=FuzzReadOoklaCSV` explores further, and
// `make fuzz-smoke` runs every target here for a few seconds.

// checkCSVFixpoint is the CSV fuzzers' oracle: columns that parsed must
// write, read back and write again to the identical bytes.
func checkCSVFixpoint[C any](t *testing.T, cols C, write func(io.Writer, C) error, read func(io.Reader, int) (C, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := write(&first, cols); err != nil {
		t.Fatalf("write parsed columns: %v", err)
	}
	back, err := read(bytes.NewReader(first.Bytes()), 1)
	if err != nil {
		t.Fatalf("read back written CSV: %v\n%q", err, first.Bytes())
	}
	if err := write(&second, back); err != nil {
		t.Fatalf("write read-back columns: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("write/read/write changed the CSV:\n%q\n%q", first.Bytes(), second.Bytes())
	}
}

func FuzzReadOoklaCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteOoklaCSV(&buf, ColumnizeOokla(GenerateOokla(catalogForFuzz(), 5, 1))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add(strings.Join(ooklaHeader, ",") + "\n")
	f.Add(strings.Join(ooklaHeader, ",") + "\n1,2\n")
	f.Add("garbage,\"unterminated\n")
	f.Fuzz(func(t *testing.T, data string) {
		cols, err := ReadOoklaColumns(strings.NewReader(data), 1)
		if err == nil {
			for _, r := range cols.Records() {
				_ = r.Platform.String()
			}
			checkCSVFixpoint(t, cols, WriteOoklaCSV, ReadOoklaColumns)
		}
	})
}

func FuzzReadMLabCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMLabCSV(&buf, ColumnizeMLabRows(GenerateMLab(catalogForFuzz(), 5, 2, DefaultMLabOptions()))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add(strings.Join(mlabHeader, ",") + "\nx\n")
	f.Fuzz(func(t *testing.T, data string) {
		cols, err := ReadMLabColumns(strings.NewReader(data), 1)
		if err == nil {
			// Parsed rows must survive association without panics.
			_ = Associate(cols.Records())
			checkCSVFixpoint(t, cols, WriteMLabCSV, ReadMLabColumns)
		}
	})
}

func FuzzReadMBACSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteMBACSV(&buf, ColumnizeMBA(GenerateMBA(catalogForFuzz(), 3, 9, 3))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add(strings.Join(mbaHeader, ",") + "\n,,,,,,,,,\n")
	f.Fuzz(func(t *testing.T, data string) {
		if cols, err := ReadMBAColumns(strings.NewReader(data), 1); err == nil {
			checkCSVFixpoint(t, cols, WriteMBACSV, ReadMBAColumns)
		}
	})
}

func FuzzAssociate(f *testing.F) {
	f.Add("1.1.1.1", "2.2.2.2", int64(0), int64(30), 100.0, 5.0)
	f.Add("1.1.1.1", "1.1.1.1", int64(10), int64(-5), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, clientIP, serverIP string, off1, off2 int64, s1, s2 float64) {
		rows := GenerateMLab(catalogForFuzz(), 3, 4, DefaultMLabOptions())
		// Splice in adversarial rows.
		base := rows[0].Timestamp
		rows = append(rows,
			MLabRow{ClientIP: clientIP, ServerIP: serverIP, Direction: MLabDownload,
				Timestamp: base.Add(time.Duration(off1) * time.Second), SpeedMbps: s1},
			MLabRow{ClientIP: clientIP, ServerIP: serverIP, Direction: MLabUpload,
				Timestamp: base.Add(time.Duration(off2) * time.Second), SpeedMbps: s2},
		)
		tests := Associate(rows)
		for _, p := range tests {
			if p.Timestamp.IsZero() && p.ClientIP == "" {
				t.Fatal("malformed pair")
			}
		}
	})
}

// catalogForFuzz returns a small catalog for corpus generation.
func catalogForFuzz() *plans.Catalog { return plans.CityA() }
