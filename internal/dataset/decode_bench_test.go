package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"speedctx/internal/plans"
	"speedctx/internal/wifi"
)

// Ingest benchmarks for the BENCH_pr*.json perf trajectory. Three readers
// of the same bytes are compared: the pre-PR5 encoding/csv reader
// (legacyReadOoklaCSV below, kept verbatim as the benchmark baseline), the
// streaming chunk scanner serial (p=1) and chunked over the full pool
// (p=0). On a multi-core machine p=0 additionally scales with cores; on
// one core it measures the chunking overhead. The snapshot benchmarks
// compare the three ways a suite run can obtain a city's columns:
// regeneration, CSV parse, and .sxc load.

// legacyReadOoklaCSV is the PR 4 implementation of ReadOoklaCSV —
// csv.ReadAll into [][]string, then per-field strconv with errors
// discarded — preserved only as the benchmark comparator.
func legacyReadOoklaCSV(r io.Reader) ([]OoklaRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty ookla csv")
	}
	var out []OoklaRecord
	for i, row := range rows[1:] {
		if len(row) != len(ooklaHeader) {
			return nil, fmt.Errorf("dataset: ookla row %d has %d fields, want %d", i+2, len(row), len(ooklaHeader))
		}
		var rec OoklaRecord
		rec.TestID, _ = strconv.Atoi(row[0])
		rec.UserID, _ = strconv.Atoi(row[1])
		rec.City, rec.ISP = row[2], row[3]
		rec.Timestamp, err = time.Parse(time.RFC3339, row[4])
		if err != nil {
			return nil, fmt.Errorf("dataset: ookla row %d timestamp: %w", i+2, err)
		}
		p, ok := platformByName[row[5]]
		if !ok {
			return nil, fmt.Errorf("dataset: ookla row %d: unknown platform %q", i+2, row[5])
		}
		rec.Platform = p
		rec.Access = AccessType(row[6])
		rec.HasRadioInfo, _ = strconv.ParseBool(row[7])
		if rec.HasRadioInfo {
			if row[8] == wifi.Band24GHz.String() {
				rec.Band = wifi.Band24GHz
			} else {
				rec.Band = wifi.Band5GHz
			}
		}
		rec.RSSI, _ = strconv.ParseFloat(row[9], 64)
		rec.MaxTheoreticalMbps, _ = strconv.ParseFloat(row[10], 64)
		rec.KernelMemMB, _ = strconv.Atoi(row[11])
		rec.DownloadMbps, _ = strconv.ParseFloat(row[12], 64)
		rec.UploadMbps, _ = strconv.ParseFloat(row[13], 64)
		rec.LatencyMs, _ = strconv.ParseFloat(row[14], 64)
		rec.TruthTier, _ = strconv.Atoi(row[15])
		out = append(out, rec)
	}
	return out, nil
}

// ooklaCSVBytes builds an n-row Ookla CSV by tiling a generated 10k-row
// body: decode cost depends on byte volume and field mix, not row
// identity, and tiling keeps fixture setup off the multi-minute
// generation path for the 1M size.
func ooklaCSVBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	const base = 10000
	var buf bytes.Buffer
	if err := WriteOoklaCSV(&buf, ColumnizeOokla(GenerateOokla(plans.CityA(), base, 9))); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	nl := bytes.IndexByte(data, '\n')
	header, body := data[:nl+1], data[nl+1:]
	reps := (n + base - 1) / base
	out := make([]byte, 0, len(header)+reps*len(body))
	out = append(out, header...)
	for i := 0; i < reps; i++ {
		out = append(out, body...)
	}
	return out
}

// BenchmarkReadOoklaCSV builds each size's fixture inside that size's
// sub-benchmark, so a -bench filter that skips the size skips its fixture.
func BenchmarkReadOoklaCSV(b *testing.B) {
	for _, n := range []int{100000, 1000000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			data := ooklaCSVBytes(b, n)
			b.Run("legacy", func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					recs, err := legacyReadOoklaCSV(bytes.NewReader(data))
					if err != nil || len(recs) != n {
						b.Fatalf("%d recs, %v", len(recs), err)
					}
				}
			})
			for _, par := range []int{1, 0} {
				b.Run(fmt.Sprintf("p=%d", par), func(b *testing.B) {
					b.SetBytes(int64(len(data)))
					for i := 0; i < b.N; i++ {
						cols, err := ReadOoklaColumns(bytes.NewReader(data), par)
						if err != nil || cols.Len() != n {
							b.Fatalf("%d rows, %v", cols.Len(), err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkOoklaIngest compares the three sources a suite run can obtain a
// city's columns from — full regeneration, CSV parse, and .sxc snapshot
// load (os.ReadFile + decode, i.e. exactly SnapshotStore.Load) — at the
// same row count. The snapshot-vs-CSV ratio is the PR 5 headline number.
func BenchmarkOoklaIngest(b *testing.B) {
	const n = 100000
	data := ooklaCSVBytes(b, n)
	cols, err := ReadOoklaColumns(bytes.NewReader(data), 0)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st := &SnapshotStore{Dir: dir}
	key := SnapshotKey{City: "bench", Seed: 9, Scale: 1}
	if err := st.Save(key, &CitySnapshot{Ookla: cols}); err != nil {
		b.Fatal(err)
	}
	csvPath := filepath.Join(dir, "bench.csv")
	if err := os.WriteFile(csvPath, data, 0o644); err != nil {
		b.Fatal(err)
	}

	b.Run(fmt.Sprintf("n=%d/src=generate", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if recs := GenerateOoklaPar(plans.CityA(), n, 9, 0); len(recs) != n {
				b.Fatal("bad generate")
			}
		}
	})
	b.Run(fmt.Sprintf("n=%d/src=csv", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(csvPath)
			if err != nil {
				b.Fatal(err)
			}
			got, err := ReadOoklaColumns(f, 0)
			f.Close()
			if err != nil || got.Len() != n {
				b.Fatalf("%d rows, %v", got.Len(), err)
			}
		}
	})
	b.Run(fmt.Sprintf("n=%d/src=snapshot", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap, err := st.Load(key)
			if err != nil || snap.Ookla.Len() != n {
				b.Fatalf("snapshot load: %v", err)
			}
		}
	})
}
