package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

func synthIngestRows(n int, seed int64) []IngestRow {
	rng := rand.New(rand.NewSource(seed))
	base := time.Unix(1609459200, 0).UTC()
	rows := make([]IngestRow, n)
	for i := range rows {
		rows[i] = IngestRow{
			TestID:       i,
			UserID:       rng.Intn(n/2 + 1),
			City:         string(rune('A' + i%4)),
			ISP:          "ISP-" + string(rune('A'+i%4)),
			Timestamp:    base.Add(time.Duration(i) * time.Second),
			DownloadMbps: rng.Float64() * 1200,
			UploadMbps:   rng.Float64() * 35,
			LatencyMs:    rng.Float64() * 40,
			UploadTier:   rng.Intn(5) - 1,
			Tier:         rng.Intn(7),
			Confidence:   rng.Float64(),
		}
	}
	return rows
}

func TestIngestSegmentRoundTrip(t *testing.T) {
	rows := synthIngestRows(500, 1)
	buf, err := EncodeIngestSegment(ColumnizeIngest(rows))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeCitySnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	cols := snap.Ingest
	got := cols.Rows()
	if len(got) != len(rows) {
		t.Fatalf("rows = %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !got[i].Timestamp.Equal(rows[i].Timestamp) {
			t.Fatalf("row %d timestamp = %v, want %v", i, got[i].Timestamp, rows[i].Timestamp)
		}
		a, b := got[i], rows[i]
		a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("row %d = %+v, want %+v", i, a, b)
		}
	}
}

// TestIngestSegmentIEEEExact pins bit-exact float round trips, including
// the values a plain text codec would mangle.
func TestIngestSegmentIEEEExact(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Pi, 1e-308, math.MaxFloat64, math.Inf(1)}
	rows := make([]IngestRow, len(specials))
	for i, v := range specials {
		rows[i] = IngestRow{TestID: i, City: "A", DownloadMbps: v, UploadMbps: -v, Confidence: v,
			Timestamp: time.Unix(int64(i), 0).UTC()}
	}
	buf, err := EncodeIngestSegment(ColumnizeIngest(rows))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeCitySnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	cols := snap.Ingest
	for i, v := range specials {
		if math.Float64bits(cols.Download[i]) != math.Float64bits(v) {
			t.Errorf("download[%d] bits changed: %x != %x", i,
				math.Float64bits(cols.Download[i]), math.Float64bits(v))
		}
		if math.Float64bits(cols.Upload[i]) != math.Float64bits(-v) {
			t.Errorf("upload[%d] bits changed", i)
		}
	}
}

// TestSortIngestRowsTotalOrder is the determinism substrate of the seal
// path: sorting any permutation of the same rows must yield the same
// sequence, hence byte-identical encoded segments.
func TestSortIngestRowsTotalOrder(t *testing.T) {
	rows := synthIngestRows(400, 2)
	// Inject full duplicates and near-duplicates differing only in late
	// tiebreak fields.
	rows = append(rows, rows[10], rows[20])
	near := rows[30]
	near.Confidence = math.Nextafter(near.Confidence, 2)
	rows = append(rows, near)

	want := append([]IngestRow(nil), rows...)
	SortIngestRows(want)
	wantBuf, err := EncodeIngestSegment(ColumnizeIngest(want))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		perm := append([]IngestRow(nil), rows...)
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		SortIngestRows(perm)
		buf, err := EncodeIngestSegment(ColumnizeIngest(perm))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, wantBuf) {
			t.Fatalf("trial %d: sorted permutation encodes differently", trial)
		}
	}
}

func TestDecodeIngestSegmentRejectsCorruption(t *testing.T) {
	rows := synthIngestRows(100, 3)
	buf, err := EncodeIngestSegment(ColumnizeIngest(rows))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCitySnapshot(buf[:len(buf)-3]); err == nil {
		t.Error("truncated segment decoded")
	}
	flip := append([]byte(nil), buf...)
	flip[len(flip)/2] ^= 0x40
	if _, err := DecodeCitySnapshot(flip); err == nil {
		t.Error("corrupted segment decoded")
	}
	// An empty ingest section still decodes as a (zero-row) section.
	empty, err := EncodeIngestSegment(ColumnizeIngest(nil))
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := DecodeCitySnapshot(empty); err != nil || snap.Ingest == nil {
		t.Errorf("empty ingest section should decode: %v", err)
	}
}
