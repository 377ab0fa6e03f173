package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// scanRecord is everything one scan yields: each batch with its columns
// copied out of the reused buffers, the final counters and the error.
type scanRecord struct {
	batches []ColumnsBatch
	ctr     DecodeCounters
	err     string
}

func recordScan(sc *BlockScanner) scanRecord {
	var r scanRecord
	for sc.Scan() {
		b := *sc.Batch()
		b.Ookla, b.MLab, b.MBA, b.Ingest = cloneCols(b.Ookla), cloneCols(b.MLab), cloneCols(b.MBA), cloneCols(b.Ingest)
		r.batches = append(r.batches, b)
	}
	r.ctr = sc.Counters()
	if err := sc.Err(); err != nil {
		r.err = err.Error()
	}
	return r
}

// cloneCols deep-copies a batch container, keeping nil columns nil.
func cloneCols[S any](c *S) *S {
	if c == nil {
		return nil
	}
	out := new(S)
	appendColumns(out, c)
	return out
}

// TestDirectoryScannerIdentity: a scanner made from a parsed Directory
// yields the batches and counters NewBlockScanner yields, for plain v2 and
// zoned v3 files, every selection shape, predicates that hit and miss,
// batch sizes from one row to whole sections, over memory and a file —
// and a second scanner of the same Directory repeats the first exactly,
// so no state leaks from one scanner into the next. Every directory
// scanner takes over the buffers of the one before it (Reuse), across
// files, sources, selections and batch sizes, so recycled windows and
// batch containers must not change a batch either.
func TestDirectoryScannerIdentity(t *testing.T) {
	snap := prunedFixture(t)
	plain := encodeSnapshot(t, snap)
	opts := testZoneOptions(16)
	zoned, err := EncodeCitySnapshotZoned(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The hit range is one ingest row's key; the miss range lies above
	// every row's key, so zoned groups all skip.
	var maxKey uint64
	for _, c := range []struct {
		city []string
		user []int
	}{{snap.Ingest.City, snap.Ingest.UserID}, {snap.Ookla.City, snap.Ookla.UserID}} {
		for _, k := range zoneKeys(testZoneKey16, c.city, c.user) {
			if k > maxKey {
				maxKey = k
			}
		}
	}
	hitKey := testZoneKey16(snap.Ingest.City[0], snap.Ingest.UserID[0])
	preds := []struct {
		name string
		p    *ScanPredicate
	}{
		{"nil", nil},
		{"hit", &ScanPredicate{Quadkey: &QuadkeyRange{Zoom: 16, Min: hitKey, Max: hitKey, LocSeed: opts.LocSeed}}},
		{"miss", &ScanPredicate{Quadkey: &QuadkeyRange{Zoom: 16, Min: maxKey + 1, Max: 1<<32 - 1, LocSeed: opts.LocSeed}}},
	}
	sels := []struct {
		name string
		sel  SnapshotSelection
	}{
		{"tile", SnapshotSelection{
			Ookla:  Cols(OoklaColUserID, OoklaColAccess, OoklaColDownload, OoklaColUpload, OoklaColLatency),
			Ingest: Cols(IngestColUserID, IngestColCity, IngestColDownload, IngestColUpload, IngestColLatency, IngestColTier),
		}},
		{"all", SelectAll()},
		{"none", SnapshotSelection{}},
		{"sketches-only", SnapshotSelection{Sketches: true}},
	}
	dir := t.TempDir()
	var prev *BlockScanner
	for _, file := range []struct {
		name string
		data []byte
	}{{"v2", plain}, {"v3", zoned}} {
		path := filepath.Join(dir, file.name+".sxc")
		if err := os.WriteFile(path, file.data, 0o644); err != nil {
			t.Fatal(err)
		}
		fsrc, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fsrc.Close()
		for _, src := range []struct {
			name string
			src  ScanSource
		}{{"bytes", BytesSource(file.data)}, {"file", fsrc}} {
			d, err := ParseDirectory(src.src)
			if err != nil {
				t.Fatal(err)
			}
			skipped := false
			for _, sc := range sels {
				for _, pr := range preds {
					sel := sc.sel
					sel.Predicate = pr.p
					for _, batch := range []int{1, 4096, 1 << 30} {
						name := fmt.Sprintf("%s/%s/%s/%s/batch=%d", file.name, src.name, sc.name, pr.name, batch)
						want, err := NewBlockScanner(src.src, sel, batch)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						ref := recordScan(want)
						if ref.err != "" {
							t.Fatalf("%s: scan: %s", name, ref.err)
						}
						skipped = skipped || ref.ctr.BlocksSkipped > 0
						for pass := 0; pass < 2; pass++ {
							got, err := d.Scanner(src.src, sel, batch)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							got.Reuse(prev)
							prev = got
							if rec := recordScan(got); !reflect.DeepEqual(rec, ref) {
								t.Fatalf("%s pass %d: directory scanner differs from NewBlockScanner\ngot  %+v\nwant %+v", name, pass, rec.ctr, ref.ctr)
							}
						}
					}
				}
			}
			if skipped != (file.name == "v3") {
				t.Fatalf("%s/%s: row groups skipped = %v", file.name, src.name, skipped)
			}
		}
	}
	// A directory refuses a source of another size.
	d, err := ParseDirectory(BytesSource(plain))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Scanner(BytesSource(zoned), SelectAll(), 0); err == nil {
		t.Fatal("directory of one image scanned another")
	}
}

// TestSnapshotTrailer: the trailer is the image's last eight bytes, and
// a rewritten image reads a different one.
func TestSnapshotTrailer(t *testing.T) {
	snap := prunedFixture(t)
	a := encodeSnapshot(t, snap)
	snap.Ingest.Download[0]++
	b := encodeSnapshot(t, snap)
	ta, err := SnapshotTrailer(BytesSource(a))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := SnapshotTrailer(BytesSource(b))
	if err != nil {
		t.Fatal(err)
	}
	if ta != snapshotChecksum(a[:len(a)-8]) || ta == tb {
		t.Fatalf("trailers %x, %x", ta, tb)
	}
	if _, err := SnapshotTrailer(BytesSource(a[:7])); err == nil {
		t.Fatal("trailer of a 7-byte image")
	}
}

// TestFileScanAllocsFlat: what a file-backed scan of a zoned store
// allocates does not grow with the row groups it scans. Read windows are
// sized to their blocks and recycled between groups, and batch buffers
// keep their capacity, so only the per-group directory entries and
// cursors remain: 64 groups stay within 1.5× of 8.
func TestFileScanAllocsFlat(t *testing.T) {
	const groupRows = 4096
	sel := SnapshotSelection{Ingest: Cols(
		IngestColUserID, IngestColCity, IngestColDownload,
		IngestColUpload, IngestColLatency, IngestColTier,
	)}
	dir := t.TempDir()
	alloc := func(groups int) uint64 {
		rows := zonedIngestRows(groups * groupRows)
		SortIngestRowsClustered(rows, testZoneKey16)
		data, err := EncodeIngestSegmentZoned(ColumnizeIngest(rows), nil, testZoneOptions(groupRows))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("g%d.sxc", groups))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		for run := 0; run < 3; run++ {
			src, err := OpenFileSource(path)
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sc, err := NewBlockScanner(src, sel, 0)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for sc.Scan() {
				n += sc.Batch().Rows
			}
			runtime.ReadMemStats(&m1)
			src.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if c := sc.Counters(); n != groups*groupRows || c.BlocksScanned != groups {
				t.Fatalf("%d groups: scanned %d rows in %d groups", groups, n, c.BlocksScanned)
			}
			best = min(best, m1.TotalAlloc-m0.TotalAlloc)
		}
		return best
	}
	few, many := alloc(8), alloc(64)
	t.Logf("file scan allocates %d B over 8 groups, %d B over 64", few, many)
	if float64(many) > 1.5*float64(few) {
		t.Fatalf("file scan allocates %d B over 64 groups, more than 1.5× the %d B over 8", many, few)
	}
}
