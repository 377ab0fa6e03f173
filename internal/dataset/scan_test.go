package dataset

import (
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"speedctx/internal/plans"
)

// TestSumStateMatchesChecksum pins the incremental checksum to the
// one-shot snapshotChecksum across lengths covering every tail case and
// across arbitrary update split points — the property that lets a
// file-backed scan verify blocks it never holds in one piece.
func TestSumStateMatchesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lengths := []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 100, 1000, 64*1024 + 7}
	for _, n := range lengths {
		data := make([]byte, n)
		rng.Read(data)
		want := snapshotChecksum(data)
		for trial := 0; trial < 8; trial++ {
			s := newSumState(int64(n))
			for off := 0; off < n; {
				step := 1 + rng.Intn(n-off)
				s.update(data[off : off+step])
				off += step
			}
			if n == 0 {
				s.update(nil)
			}
			if got := s.final(); got != want {
				t.Fatalf("len %d trial %d: incremental sum %x != %x", n, trial, got, want)
			}
		}
	}
}

// appendColumns appends every non-nil slice field of src onto dst (both
// pointers to the same SoA struct type) — the test-side accumulator that
// rebuilds whole columns from streamed batches.
func appendColumns(dst, src any) {
	dv := reflect.ValueOf(dst).Elem()
	sv := reflect.ValueOf(src).Elem()
	for i := 0; i < dv.NumField(); i++ {
		sf := sv.Field(i)
		if sf.Kind() != reflect.Slice || sf.IsNil() {
			continue
		}
		df := dv.Field(i)
		if df.IsNil() {
			df.Set(reflect.MakeSlice(df.Type(), 0, sf.Len()))
		}
		df.Set(reflect.AppendSlice(df, sf))
	}
}

// collectScan streams src under sel and reassembles a CitySnapshot from
// the batches, copying every batch out of the reused buffers.
func collectScan(src ScanSource, sel SnapshotSelection, batch int) (*CitySnapshot, DecodeCounters, error) {
	sc, err := NewBlockScanner(src, sel, batch)
	if err != nil {
		return nil, DecodeCounters{}, err
	}
	snap := &CitySnapshot{}
	for sc.Scan() {
		b := sc.Batch()
		switch b.Kind {
		case SectionOokla:
			if snap.Ookla == nil {
				snap.Ookla = &OoklaColumns{}
			}
			appendColumns(snap.Ookla, b.Ookla)
		case SectionAndroid:
			if snap.Android == nil {
				snap.Android = &OoklaColumns{}
			}
			appendColumns(snap.Android, b.Ookla)
		case SectionMLab:
			if snap.MLabRows == nil {
				snap.MLabRows = &MLabRowColumns{}
			}
			appendColumns(snap.MLabRows, b.MLab)
		case SectionMBA:
			if snap.MBA == nil {
				snap.MBA = &MBAColumns{}
			}
			appendColumns(snap.MBA, b.MBA)
		case SectionIngest:
			if snap.Ingest == nil {
				snap.Ingest = &IngestColumns{}
			}
			appendColumns(snap.Ingest, b.Ingest)
		case SectionSketch:
			snap.Sketches = b.Sketches
		}
	}
	return snap, sc.Counters(), sc.Err()
}

func scanSelections() []struct {
	name string
	sel  SnapshotSelection
} {
	return []struct {
		name string
		sel  SnapshotSelection
	}{
		{"everything", SelectAll()},
		{"tile-cols", SnapshotSelection{Ookla: Cols(OoklaColUserID, OoklaColDownload, OoklaColUpload, OoklaColLatency, OoklaColAccess)}},
		{"ingest-sketch", SnapshotSelection{Ingest: Cols(IngestColCity, IngestColDownload, IngestColUpload, IngestColUploadTier), Sketches: true}},
		{"strings-times", SnapshotSelection{Ookla: Cols(OoklaColCity, OoklaColTimestamp), MBA: AllColumns}},
		{"sketches-only", SnapshotSelection{Sketches: true}},
		{"nothing", SnapshotSelection{}},
	}
}

// TestBlockScannerMatchesDecode is the core identity gate: a streamed scan
// reassembled at any batch size equals the materializing pruned decode —
// columns and counters both — over in-memory and file-backed sources.
func TestBlockScannerMatchesDecode(t *testing.T) {
	data := encodeSnapshot(t, prunedFixture(t))
	path := filepath.Join(t.TempDir(), "snap.sxc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range scanSelections() {
		want, wantCtr, err := decodeCitySnapshotSel(data, tc.sel)
		if err != nil {
			t.Fatalf("%s: pruned decode: %v", tc.name, err)
		}
		for _, batch := range []int{1, 3, 100, DefaultScanBatchRows, 1 << 30} {
			got, gotCtr, err := collectScan(byteSource(data), tc.sel, batch)
			if err != nil {
				t.Fatalf("%s batch %d: scan: %v", tc.name, batch, err)
			}
			compareSnapshots(t, tc.name, batch, want, got)
			if gotCtr != wantCtr {
				t.Errorf("%s batch %d: counters %+v != pruned %+v", tc.name, batch, gotCtr, wantCtr)
			}
		}
		src, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		got, gotCtr, err := collectScan(src, tc.sel, 7)
		src.Close()
		if err != nil {
			t.Fatalf("%s file: scan: %v", tc.name, err)
		}
		compareSnapshots(t, tc.name+"/file", 7, want, got)
		if gotCtr != wantCtr {
			t.Errorf("%s file: counters %+v != pruned %+v", tc.name, gotCtr, wantCtr)
		}
	}
}

func compareSnapshots(t *testing.T, name string, batch int, want, got *CitySnapshot) {
	t.Helper()
	check := func(col string, w, g any) {
		t.Helper()
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s batch %d: %s differs from materialized decode", name, batch, col)
		}
	}
	check("ookla", want.Ookla, got.Ookla)
	check("android", want.Android, got.Android)
	check("mlab", want.MLabRows, got.MLabRows)
	check("mba", want.MBA, got.MBA)
	check("ingest", want.Ingest, got.Ingest)
	check("sketches", want.Sketches, got.Sketches)
}

// TestBlockScannerLargeFileWindows forces the file-backed refill path to
// cross window boundaries many times per column (payloads well past
// scanReadChunk) and checks the reassembly still matches the in-memory
// decode bit for bit.
func TestBlockScannerLargeFileWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB fixture")
	}
	n := 100_000
	rows := make([]IngestRow, n)
	base := time.Unix(1_700_000_000, 0).UTC()
	for i := range rows {
		rows[i] = IngestRow{
			TestID: i, UserID: i % 5000,
			City: "metro-" + strings.Repeat("x", i%3), ISP: "isp",
			Timestamp:    base.Add(time.Duration(i) * time.Second),
			DownloadMbps: float64(i%900) + 0.25, UploadMbps: float64(i%80) + 0.5,
			LatencyMs: float64(i%50) + 1, UploadTier: i % 4, Tier: 1 + i%3,
			Confidence: float64(i%100) / 100,
		}
	}
	data, err := EncodeIngestSegment(ColumnizeIngest(rows))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.sxc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sel := SnapshotSelection{Ingest: AllColumns}
	want, _, err := decodeCitySnapshotSel(data, sel)
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, _, err := collectScan(src, sel, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Ingest, got.Ingest) {
		t.Fatal("file-windowed scan differs from in-memory decode")
	}
}

// TestBlockScannerZeroRowSection: an empty selected section yields exactly
// one zero-row batch and reassembles to the decoder's empty columns.
func TestBlockScannerZeroRowSection(t *testing.T) {
	data, err := EncodeIngestSegment(ColumnizeIngest(nil))
	if err != nil {
		t.Fatal(err)
	}
	sel := SnapshotSelection{Ingest: AllColumns}
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
		t.Fatalf("zero-row section yielded %d batches, want 1", batches)
	}
	want, _, err := decodeCitySnapshotSel(data, sel)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := collectScan(byteSource(data), sel, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Ingest, got.Ingest) {
		t.Fatal("zero-row section reassembly differs from decode")
	}
}

// truncSource reports the full size but can only serve the first n bytes —
// a file truncated underneath an already-parsed scan.
type truncSource struct {
	data []byte
	n    int
}

func (s truncSource) Size() int64 { return int64(len(s.data)) }
func (s truncSource) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(s.n) {
		return 0, io.ErrUnexpectedEOF
	}
	m := copy(p, s.data[off:s.n])
	if m < len(p) {
		return m, io.ErrUnexpectedEOF
	}
	return m, nil
}

// TestBlockScannerTruncatedMidBlock: truncating the byte stream under a
// streaming scan surfaces an error (never a hang, panic, or silent short
// result), wherever the cut lands.
func TestBlockScannerTruncatedMidBlock(t *testing.T) {
	data := encodeSnapshot(t, prunedFixture(t))
	sel := SelectAll()
	for _, frac := range []int{4, 2, 3} {
		n := len(data) * (frac - 1) / frac
		sc, err := NewBlockScanner(truncSource{data: data, n: n}, sel, 16)
		if err != nil {
			continue // truncation already visible to the directory parse
		}
		for sc.Scan() {
		}
		if sc.Err() == nil {
			t.Fatalf("scan over stream truncated at %d/%d bytes succeeded", n, len(data))
		}
	}
	// A cut inside the last block's payload lands past every header, so
	// the directory parses cleanly and the failure must surface mid-scan,
	// from the streaming refill path itself.
	probe, err := newBlockScanner(byteSource(data), sel, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	lastSec := probe.sections[len(probe.sections)-1]
	last := lastSec.cols[len(lastSec.cols)-1]
	if last.length < 2 {
		t.Fatalf("fixture's last block too small to cut (%d bytes)", last.length)
	}
	cut := int(last.off + last.length/2)
	sc, err := NewBlockScanner(truncSource{data: data, n: cut}, sel, 16)
	if err != nil {
		t.Fatalf("directory parse should not need bytes past %d: %v", cut, err)
	}
	for sc.Scan() {
	}
	if sc.Err() == nil {
		t.Fatal("mid-payload truncation not surfaced by streaming scan")
	}
	// Truncated images (not just streams) must fail at construction.
	for _, n := range []int{0, 10, len(data) / 2, len(data) - 1} {
		if _, err := NewBlockScanner(byteSource(data[:n]), sel, 16); err == nil {
			t.Fatalf("NewBlockScanner accepted %d-byte prefix", n)
		}
	}
}

// TestBlockScannerCorruptBlock: a flipped payload byte in a selected
// column fails the scan with the block's index in the error, and the
// failure arrives no later than the batch that would carry the corrupt
// bytes.
func TestBlockScannerCorruptBlock(t *testing.T) {
	data := encodeSnapshot(t, prunedFixture(t))
	probe, err := newBlockScanner(byteSource(data), SelectAll(), 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, secIdx := range []int{0, 2} {
		ss := probe.sections[secIdx]
		for _, colIdx := range []int{0, len(ss.cols) - 1} {
			bi := ss.cols[colIdx]
			if bi.length == 0 {
				continue
			}
			bad := append([]byte(nil), data...)
			bad[bi.off+bi.length/2] ^= 0x20
			sc, err := NewBlockScanner(byteSource(bad), SelectAll(), 32)
			if err != nil {
				t.Fatal(err)
			}
			for sc.Scan() {
			}
			serr := sc.Err()
			if serr == nil {
				t.Fatalf("corrupt block %d not detected", bi.ordinal)
			}
			if !strings.Contains(serr.Error(), "checksum mismatch") {
				t.Fatalf("corrupt block %d: unexpected error %v", bi.ordinal, serr)
			}
			if !strings.Contains(serr.Error(), "block") {
				t.Fatalf("corrupt block error lacks block index: %v", serr)
			}
		}
	}
}

// FuzzBlockScanner mirrors FuzzDecodePruned for the streaming path: on any
// input where the materializing pruned decode succeeds, a batched scan of
// the same selection must succeed and reassemble identical columns.
func FuzzBlockScanner(f *testing.F) {
	small := &CitySnapshot{
		Ookla: ColumnizeOokla(GenerateOokla(plans.CityA(), 8, 1)),
		MBA:   ColumnizeMBA(GenerateMBA(plans.CityC(), 2, 6, 2)),
	}
	data, err := encodeCitySnapshot(small, DataVersion)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, uint32(0), uint32(0), true, uint16(1))
	f.Add(data, uint32(Cols(OoklaColDownload, OoklaColUpload)), ^uint32(0), false, uint16(3))
	trunc := append([]byte(nil), data[:len(data)/2]...)
	f.Add(trunc, ^uint32(0), uint32(2), true, uint16(64))
	flip := append([]byte(nil), data...)
	flip[len(flip)/3] ^= 0xff
	f.Add(flip, uint32(6), uint32(0), false, uint16(2))
	// v3 zoned seeds: a multi-group zoned image, a truncated one, and one
	// with a flipped byte in the zone-directory region.
	zoned, err := EncodeCitySnapshotZoned(small, &ZoneOptions{
		BlockRows: 3, Zoom: 16, LocSeed: 5,
		Quadkey: func(city string, userID int) uint64 { return uint64(userID) * 31 },
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zoned, ^uint32(0), uint32(0), false, uint16(2))
	f.Add(append([]byte(nil), zoned[:len(zoned)*2/3]...), ^uint32(0), ^uint32(0), true, uint16(8))
	zflip := append([]byte(nil), zoned...)
	zflip[12] ^= 0x55
	f.Add(zflip, uint32(6), uint32(6), false, uint16(4))
	// Decode-kernel seeds: an ingest image whose user-id deltas are
	// varints of 1, 2, 3 and 10 bytes, and the same image with its
	// user-id block ending in a dangling continuation byte.
	kimg := kernelIngestImage(f)
	f.Add(kimg, uint32(0), ^uint32(0), false, uint16(5))
	f.Add(danglingUserIDImage(f, kimg), uint32(0), ^uint32(0), false, uint16(7))
	f.Fuzz(func(t *testing.T, b []byte, ooklaSel, otherSel uint32, sketches bool, batch uint16) {
		sel := SnapshotSelection{
			Ookla: ColumnSet(ooklaSel), Android: ColumnSet(ooklaSel),
			MLab: ColumnSet(otherSel), MBA: ColumnSet(otherSel), Ingest: ColumnSet(otherSel),
			Sketches: sketches,
		}
		if sel == SelectAll() {
			// The full selection takes the trailer-checksum decode path,
			// which verifies a different byte set than the per-block scan;
			// outcomes can legitimately differ on forged images.
			sel.Android = 0
		}
		pruned, prunedCtr, perr := decodeCitySnapshotSel(b, sel)
		got, gotCtr, serr := collectScan(byteSource(b), sel, int(batch%512)+1)
		if perr != nil {
			if serr == nil {
				t.Fatalf("pruned decode failed (%v) but scan succeeded", perr)
			}
			return
		}
		if serr != nil {
			t.Fatalf("pruned decode succeeded but scan failed: %v", serr)
		}
		if gotCtr != prunedCtr {
			t.Fatalf("scan counters %+v != pruned %+v", gotCtr, prunedCtr)
		}
		if pruned.Ookla != nil && sel.Ookla.Has(OoklaColDownload) &&
			!reflect.DeepEqual(pruned.Ookla.Download, got.Ookla.Download) {
			t.Fatal("scanned ookla download differs from pruned decode")
		}
		if pruned.MBA != nil && sel.MBA.Has(6) && !reflect.DeepEqual(pruned.MBA.Download, got.MBA.Download) {
			t.Fatal("scanned mba download differs from pruned decode")
		}
		if pruned.Ingest != nil && sel.Ingest.Has(IngestColCity) && !reflect.DeepEqual(pruned.Ingest.City, got.Ingest.City) {
			t.Fatal("scanned ingest city differs from pruned decode")
		}
		if sketches && !reflect.DeepEqual(pruned.Sketches, got.Sketches) {
			t.Fatal("scanned sketches differ from pruned decode")
		}
		// A tautological predicate (unbounded numeric range) can never
		// exclude a group: the predicate scan must reproduce the plain scan
		// exactly, skipping nothing — on v2 and v3 images alike.
		psel := sel
		psel.Predicate = &ScanPredicate{Num: []NumRange{{Col: 1, Min: math.Inf(-1), Max: math.Inf(1)}}}
		pgot, pCtr, pserr := collectScan(byteSource(b), psel, int(batch%512)+1)
		if pserr != nil {
			t.Fatalf("plain scan succeeded but tautological-predicate scan failed: %v", pserr)
		}
		if pCtr.BlocksSkipped != 0 || pCtr.RowsSkipped != 0 {
			t.Fatalf("tautological predicate skipped groups: %+v", pCtr)
		}
		if !reflect.DeepEqual(got, pgot) {
			t.Fatal("tautological-predicate scan differs from plain scan")
		}
	})
}
