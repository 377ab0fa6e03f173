package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"speedctx/internal/plans"
)

// testZoneKey is a deterministic stand-in for the opendata quadkey
// derivation (dataset cannot import opendata): a splitmix-style hash of
// (city, userID) truncated to 2*zoom bits, so keys are stable, spread,
// and zoom-consistent (the zoom-z key is the zoom-16 key shifted).
func testZoneKey16(city string, userID int) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(city); i++ {
		h = (h ^ uint64(city[i])) * 1099511628211
	}
	h ^= uint64(int64(userID)) * 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h & (1<<32 - 1) // 2 bits per level at zoom 16
}

func testZoneOptions(blockRows int) *ZoneOptions {
	return &ZoneOptions{
		BlockRows: blockRows,
		Zoom:      16,
		LocSeed:   5,
		Quadkey:   testZoneKey16,
	}
}

func zonedIngestRows(n int) []IngestRow {
	base := time.Unix(1609459200, 0).UTC()
	rows := make([]IngestRow, n)
	for i := range rows {
		rows[i] = IngestRow{
			TestID: i + 1, UserID: i % 97,
			City: string(rune('A' + i%3)), ISP: "ISP-" + string(rune('0'+i%4)),
			Timestamp:    base.Add(time.Duration(i) * time.Second),
			DownloadMbps: float64(i%700) + 0.5, UploadMbps: float64(i%50) + 0.25,
			LatencyMs: float64(i%40) + 1, UploadTier: i % 4, Tier: 1 + i%3,
			Confidence: float64(i%100) / 100,
		}
	}
	return rows
}

// TestZonedSnapshotRoundtrip: a v3 zoned encode decodes — fully and under
// every pruned selection — to exactly what the v2 encode of the same
// snapshot decodes to, and the zoned scan accounts every row group.
func TestZonedSnapshotRoundtrip(t *testing.T) {
	snap := prunedFixture(t)
	opts := testZoneOptions(7)
	zoned, err := EncodeCitySnapshotZoned(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := encodeCitySnapshot(snap, DataVersion)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint16(zoned[4:6]) != SnapshotFormatVersionZoned {
		t.Fatalf("zoned encode carries format version %d", binary.LittleEndian.Uint16(zoned[4:6]))
	}
	for _, tc := range scanSelections() {
		want, _, err := decodeCitySnapshotSel(plain, tc.sel)
		if err != nil {
			t.Fatalf("%s: v2 decode: %v", tc.name, err)
		}
		got, ctr, err := decodeCitySnapshotSel(zoned, tc.sel)
		if err != nil {
			t.Fatalf("%s: v3 decode: %v", tc.name, err)
		}
		compareSnapshots(t, "zoned/"+tc.name, 0, want, got)
		if tc.sel.Ookla != 0 && snap.Ookla != nil {
			groups := (snap.Ookla.Len() + 6) / 7
			if snap.Ingest != nil && tc.sel.Ingest != 0 {
				groups += (snap.Ingest.Len() + 6) / 7
			}
			if ctr.BlocksScanned != groups {
				t.Errorf("%s: scanned %d zoned groups, want %d", tc.name, ctr.BlocksScanned, groups)
			}
		}
		// Streamed reassembly at small batch sizes must match too.
		for _, batch := range []int{1, 3, 1 << 30} {
			sgot, _, err := collectScan(byteSource(zoned), tc.sel, batch)
			if err != nil {
				t.Fatalf("%s batch %d: zoned scan: %v", tc.name, batch, err)
			}
			compareSnapshots(t, "zoned-scan/"+tc.name, batch, want, sgot)
		}
	}
	// Batch coordinates must cover the logical section exactly once.
	sel := SnapshotSelection{Ingest: AllColumns}
	sc, err := NewBlockScanner(byteSource(zoned), sel, 3)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for sc.Scan() {
		b := sc.Batch()
		if b.SectionRows != snap.Ingest.Len() {
			t.Fatalf("batch SectionRows %d, want logical %d", b.SectionRows, snap.Ingest.Len())
		}
		if b.Start != next {
			t.Fatalf("batch Start %d, want %d", b.Start, next)
		}
		next += b.Rows
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if next != snap.Ingest.Len() {
		t.Fatalf("batches covered %d rows, want %d", next, snap.Ingest.Len())
	}
}

// TestZonedPushdownNeverDropsMatches is the randomized equivalence
// property: under random quadkey and numeric predicates, a pushdown scan
// returns a subset of the full scan that (a) contains every row actually
// matching the predicate, (b) consists of whole groups, and (c) accounts
// all skipped rows in the counters.
func TestZonedPushdownNeverDropsMatches(t *testing.T) {
	rows := zonedIngestRows(2000)
	SortIngestRowsClustered(rows, testZoneKey16)
	data, err := EncodeIngestSegmentZoned(ColumnizeIngest(rows), nil, testZoneOptions(64))
	if err != nil {
		t.Fatal(err)
	}
	sel := SnapshotSelection{Ingest: AllColumns}
	full, _, err := decodeCitySnapshotSel(data, sel)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := &ScanPredicate{}
		var qlo, qhi uint64
		qzoom := 0
		if trial%3 != 0 {
			qzoom = 12 + rng.Intn(7) // predicate zooms 12..18 vs file zoom 16
			a := rng.Uint64() & (1<<(2*qzoom) - 1)
			b := a + uint64(rng.Intn(1<<20))
			qlo, qhi = a, b
			p.Quadkey = &QuadkeyRange{Zoom: qzoom, Min: qlo, Max: qhi, LocSeed: 5}
		}
		var dlo, dhi float64
		hasNum := trial%2 == 0
		if hasNum {
			dlo = float64(rng.Intn(600))
			dhi = dlo + float64(rng.Intn(200))
			p.Num = []NumRange{{Section: SectionIngest, Col: IngestColDownload, Min: dlo, Max: dhi}}
		}
		psel := sel
		psel.Predicate = p
		got, ctr, err := decodeCitySnapshotSel(data, psel)
		if err != nil {
			t.Fatalf("trial %d: pushdown decode: %v", trial, err)
		}
		kept := map[int]bool{}
		for _, id := range got.Ingest.TestID {
			kept[id] = true
		}
		if len(got.Ingest.TestID) > len(full.Ingest.TestID) {
			t.Fatalf("trial %d: pushdown returned more rows than full scan", trial)
		}
		for i := range rows {
			matches := true
			if p.Quadkey != nil {
				k := testZoneKey16(rows[i].City, rows[i].UserID)
				if qzoom > 16 {
					k <<= 2 * uint(qzoom-16) // coarsest descendant; compare at file zoom instead
					klo, khi := qlo>>(2*uint(qzoom-16)), qhi>>(2*uint(qzoom-16))
					k >>= 2 * uint(qzoom-16)
					matches = matches && k >= klo && k <= khi
				} else {
					kc := k >> (2 * uint(16-qzoom))
					matches = matches && kc >= qlo && kc <= qhi
				}
			}
			if hasNum {
				matches = matches && rows[i].DownloadMbps >= dlo && rows[i].DownloadMbps <= dhi
			}
			if matches && !kept[rows[i].TestID] {
				t.Fatalf("trial %d: pushdown dropped matching row TestID %d", trial, rows[i].TestID)
			}
		}
		if got, want := ctr.RowsSkipped, int64(len(rows)-len(got.Ingest.TestID)); got != want {
			t.Fatalf("trial %d: RowsSkipped %d, want %d", trial, got, want)
		}
		groups := (len(rows) + 63) / 64
		if ctr.BlocksScanned+ctr.BlocksSkipped != groups {
			t.Fatalf("trial %d: %d scanned + %d skipped != %d groups", trial, ctr.BlocksScanned, ctr.BlocksSkipped, groups)
		}
	}
}

// TestZonedPredicateSafety: location-seed mismatches, NaN predicate
// bounds and v2 files must all degrade to a full read, never a skip.
func TestZonedPredicateSafety(t *testing.T) {
	rows := zonedIngestRows(300)
	SortIngestRowsClustered(rows, testZoneKey16)
	cols := ColumnizeIngest(rows)
	zoned, err := EncodeIngestSegmentZoned(cols, nil, testZoneOptions(32))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := EncodeIngestSegment(cols)
	if err != nil {
		t.Fatal(err)
	}
	narrow := &QuadkeyRange{Zoom: 16, Min: 1, Max: 2, LocSeed: 5}
	for _, tc := range []struct {
		name string
		data []byte
		p    *ScanPredicate
		skip bool // expect any groups skipped
	}{
		{"seed-mismatch", zoned, &ScanPredicate{Quadkey: &QuadkeyRange{Zoom: 16, Min: 1, Max: 2, LocSeed: 99}}, false},
		{"nan-bounds", zoned, &ScanPredicate{Num: []NumRange{{Section: SectionIngest, Col: IngestColDownload, Min: math.NaN(), Max: math.NaN()}}}, false},
		{"v2-file", plain, &ScanPredicate{Quadkey: narrow}, false},
		{"narrow-match", zoned, &ScanPredicate{Quadkey: narrow}, true},
	} {
		sel := SnapshotSelection{Ingest: AllColumns, Predicate: tc.p}
		got, ctr, err := decodeCitySnapshotSel(tc.data, sel)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.skip {
			if ctr.BlocksSkipped == 0 {
				t.Errorf("%s: expected skipped groups", tc.name)
			}
			continue
		}
		if ctr.BlocksSkipped != 0 {
			t.Errorf("%s: skipped %d groups, want full read", tc.name, ctr.BlocksSkipped)
		}
		if !reflect.DeepEqual(got.Ingest.TestID, cols.TestID) {
			t.Errorf("%s: degraded read lost rows", tc.name)
		}
	}
}

// TestZonedCorruptZoneDirectory: corrupting the zone directory (payload
// or its checksum) fails scanner construction — a corrupt zone map can
// error, never redirect the scan to wrong rows.
func TestZonedCorruptZoneDirectory(t *testing.T) {
	data, err := EncodeIngestSegmentZoned(ColumnizeIngest(zonedIngestRows(100)), nil, testZoneOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	// Envelope: magic(4) + version(2) + dataversion uvarint + nsec(1),
	// then kind(1) + rows uvarint, then the zone directory.
	off := 6
	_, w := binary.Uvarint(data[off:])
	off += w + 1 // data version + section count
	off++        // section kind
	_, w = binary.Uvarint(data[off:])
	off += w // section rows
	zlen, w := binary.Uvarint(data[off:])
	off += w
	sumAt := off
	dirAt := off + 8
	for _, at := range []int{sumAt, dirAt, dirAt + int(zlen)/2, dirAt + int(zlen) - 1} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x01
		_, err := NewBlockScanner(byteSource(bad), SnapshotSelection{Ingest: AllColumns}, 8)
		if err == nil {
			t.Fatalf("corrupt zone directory byte %d not detected", at)
		}
		if !strings.Contains(err.Error(), "zone directory") && !strings.Contains(err.Error(), "stale") {
			t.Fatalf("corrupt zone directory byte %d: unexpected error %v", at, err)
		}
	}
}

// TestZonedZeroRowSection: an empty zoned section still yields exactly
// one zero-row batch — even under a predicate that matches nothing.
func TestZonedZeroRowSection(t *testing.T) {
	data, err := EncodeIngestSegmentZoned(ColumnizeIngest(nil), nil, testZoneOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	sel := SnapshotSelection{
		Ingest:    AllColumns,
		Predicate: &ScanPredicate{Quadkey: &QuadkeyRange{Zoom: 16, Min: 1, Max: 1, LocSeed: 5}},
	}
	sc, err := NewBlockScanner(byteSource(data), sel, 8)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for sc.Scan() {
		b := sc.Batch()
		if b.Kind != SectionIngest || b.Rows != 0 || b.SectionRows != 0 {
			t.Fatalf("unexpected batch %+v", b)
		}
		batches++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if batches != 1 {
		t.Fatalf("zero-row zoned section yielded %d batches, want 1", batches)
	}
}

// TestSortIngestRowsClustered: clustering is order-independent (any
// permutation sorts to the same sequence) and key-ascending.
func TestSortIngestRowsClustered(t *testing.T) {
	rows := zonedIngestRows(500)
	a := append([]IngestRow(nil), rows...)
	b := append([]IngestRow(nil), rows...)
	rand.New(rand.NewSource(3)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	SortIngestRowsClustered(a, testZoneKey16)
	SortIngestRowsClustered(b, testZoneKey16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("clustered sort depends on input permutation")
	}
	for i := 1; i < len(a); i++ {
		if testZoneKey16(a[i-1].City, a[i-1].UserID) > testZoneKey16(a[i].City, a[i].UserID) {
			t.Fatalf("rows %d,%d out of cluster-key order", i-1, i)
		}
	}
	// A coarse key ties rows of different cities, and repeated test ids
	// and whole duplicate rows tie the entry fields too: the order must
	// still be (key, ingestRowLess).
	coarse := func(_ string, userID int) uint64 { return uint64(userID % 3) }
	rows = append(rows, rows[:50]...)
	for i := range rows {
		rows[i].TestID %= 40
	}
	rand.New(rand.NewSource(4)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	want := append([]IngestRow(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool {
		if ki, kj := coarse(want[i].City, want[i].UserID), coarse(want[j].City, want[j].UserID); ki != kj {
			return ki < kj
		}
		return ingestRowLess(&want[i], &want[j])
	})
	SortIngestRowsClustered(rows, coarse)
	if !reflect.DeepEqual(rows, want) {
		t.Fatal("clustered sort differs from the (key, ingestRowLess) order")
	}
}

// TestClusterOoklaColumns: the permuted columns hold the same row
// multiset in ascending key order, stably.
func TestClusterOoklaColumns(t *testing.T) {
	c := ColumnizeOokla(GenerateOokla(plans.CityA(), 200, 1))
	out := ClusterOoklaColumns(c, testZoneKey16)
	if out.Len() != c.Len() {
		t.Fatalf("clustered %d rows, want %d", out.Len(), c.Len())
	}
	for i := 1; i < out.Len(); i++ {
		if testZoneKey16(out.City[i-1], out.UserID[i-1]) > testZoneKey16(out.City[i], out.UserID[i]) {
			t.Fatalf("rows %d,%d out of cluster-key order", i-1, i)
		}
	}
	seen := map[int]bool{}
	for _, id := range out.TestID {
		seen[id] = true
	}
	for _, id := range c.TestID {
		if !seen[id] {
			t.Fatalf("row TestID %d lost in clustering", id)
		}
	}
}

// v2IngestFixtureHex pins the exact bytes EncodeIngestSegment produced
// when format v3 landed, so later readers keep accepting v2 stores
// unchanged and plain encodes never drift to v3 silently.
const v2IngestFixtureHex = "535843310200020105030103e188d67e406a75df0202020203dd2eb2" +
	"b676ca278e0e04030308305b13554273c2530201410142000001040a6dc7452568fa38f301" +
	"054953502d310000000508d0291015de85de86008098f3fe0b78780618e86c4fc68f4719d2" +
	"00000000000049400000000000003e40000000000000004007189ea2a3d80cf524c6000000" +
	"00000049400000000000002440000000000000f03f0818dde84e75611e3584000000000000" +
	"18400000000000002440000000000000f03f090315f128a2896acb850201040a036d933d3f" +
	"5df38ddf0401040b183421c3c9e170da03000000000000e03f000000000000d03f00000000" +
	"0000e03fff0c65c5c6a80250"

// v2IngestFixtureRows is the row set the pinned fixture encodes.
func v2IngestFixtureRows() []IngestRow {
	base := time.Unix(1609459200, 0).UTC()
	return []IngestRow{
		{TestID: 1, UserID: 7, City: "A", ISP: "ISP-1", Timestamp: base,
			DownloadMbps: 50, UploadMbps: 50, LatencyMs: 6, UploadTier: 1, Tier: 2, Confidence: 0.5},
		{TestID: 2, UserID: 9, City: "A", ISP: "ISP-1", Timestamp: base.Add(time.Minute),
			DownloadMbps: 30, UploadMbps: 10, LatencyMs: 10, UploadTier: 0, Tier: 1, Confidence: 0.25},
		{TestID: 3, UserID: 7, City: "B", ISP: "ISP-1", Timestamp: base.Add(2 * time.Minute),
			DownloadMbps: 2, UploadMbps: 1, LatencyMs: 1, UploadTier: 2, Tier: 3, Confidence: 0.5},
	}
}

// TestV2PinnedFixture is the backward-compat regression gate: the v3-era
// encoder still produces the pinned v2 bytes for a fixed row set, and the
// decoder reads them back exactly.
func TestV2PinnedFixture(t *testing.T) {
	rows := v2IngestFixtureRows()
	data, err := EncodeIngestSegment(ColumnizeIngest(rows))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(v2IngestFixtureHex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("v2 encode drifted from pinned fixture:\n got %s\nwant %s",
			hex.EncodeToString(data), v2IngestFixtureHex)
	}
	got, err := DecodeCitySnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ingest.Rows(), rows) {
		t.Fatal("pinned v2 fixture decoded to different rows")
	}
}
