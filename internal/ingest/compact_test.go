package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/plans"
)

// sortCompact is compaction as a single sort: decode every file of dir
// whole, concatenate the rows, sort them once (unmemoised keys) and encode
// them with the sketch bundles merged in file order. CompactWith's merge
// must write exactly its bytes.
func sortCompact(t *testing.T, dir string, opts CompactOptions) []byte {
	t.Helper()
	files, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rows []dataset.IngestRow
	type sketchKey struct {
		city string
		tier int
	}
	merged := make(map[sketchKey]*dataset.SketchBundle)
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := dataset.DecodeCitySnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, snap.Ingest.Rows()...)
		for _, b := range snap.Sketches {
			k := sketchKey{b.City, b.Tier}
			if m, ok := merged[k]; ok {
				if err := m.Sketch.Merge(b.Sketch); err != nil {
					t.Fatal(err)
				}
			} else {
				merged[k] = &dataset.SketchBundle{City: b.City, Tier: b.Tier, Sketch: b.Sketch.Clone()}
			}
		}
	}
	keys := make([]sketchKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].city != keys[b].city {
			return keys[a].city < keys[b].city
		}
		return keys[a].tier < keys[b].tier
	})
	var bundles []dataset.SketchBundle
	for _, k := range keys {
		bundles = append(bundles, *merged[k])
	}
	var buf []byte
	if opts.ClusterZoom > 0 {
		dataset.SortIngestRowsClustered(rows, opendata.ZoneQuadkey(opts.ClusterZoom))
		buf, err = dataset.EncodeIngestSegmentZoned(dataset.ColumnizeIngest(rows), bundles, opendata.NewZoneOptions(opts.ClusterZoom, opts.ZoneBlockRows))
	} else {
		dataset.SortIngestRows(rows)
		buf, err = dataset.EncodeIngestSegmentSketches(dataset.ColumnizeIngest(rows), bundles)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// compactFixture writes segment files into one directory: sealed through
// a real pipeline (with sketch bundles) or hand-encoded.
type compactFixture struct {
	t   *testing.T
	dir string
	p   *Pipeline
	seq int
}

func newCompactFixture(t *testing.T, rows []dataset.IngestRow) *compactFixture {
	t.Helper()
	specs := make(map[string]CitySketchSpec)
	for _, r := range rows {
		if _, ok := specs[r.City]; !ok {
			cat, ok := plans.ByCity(r.City)
			if !ok {
				t.Fatalf("no catalog for city %q", r.City)
			}
			specs[r.City] = CitySketchSpec{Spec: core.SketchSpecFor(cat), Tiers: len(cat.UploadTiers())}
		}
	}
	dir := t.TempDir()
	p, err := newPipeline(PipelineConfig{Dir: dir, Sketches: specs})
	if err != nil {
		t.Fatal(err)
	}
	return &compactFixture{t: t, dir: dir, p: p}
}

// seal seals a copy of rows as the next segment.
func (f *compactFixture) seal(rows []dataset.IngestRow) {
	f.t.Helper()
	if err := f.p.seal(slices.Clone(rows), f.seq); err != nil {
		f.t.Fatal(err)
	}
	f.seq++
}

// write stores a hand-encoded image as the next segment.
func (f *compactFixture) write(buf []byte, err error) {
	f.t.Helper()
	if err != nil {
		f.t.Fatal(err)
	}
	if err := dataset.WriteFileAtomic(f.p.segmentPath(f.seq), buf); err != nil {
		f.t.Fatal(err)
	}
	f.seq++
}

// zoned hand-encodes rows as a zoned segment clustered at zoom, with
// blockRows rows per group.
func zoned(rows []dataset.IngestRow, zoom, blockRows int) ([]byte, error) {
	rows = slices.Clone(rows)
	dataset.SortIngestRowsClustered(rows, opendata.ZoneQuadkey(zoom))
	return dataset.EncodeIngestSegmentZoned(dataset.ColumnizeIngest(rows), nil, opendata.NewZoneOptions(zoom, blockRows))
}

// TestCompactMergeMatchesSort: over every kind of run a directory can
// hold, CompactWith writes the bytes of one sort of all the rows, at
// ClusterZoom 0 and at opendata.TileZoom.
func TestCompactMergeMatchesSort(t *testing.T) {
	rows := testRows(6000, 41)
	rng := rand.New(rand.NewSource(41))
	shuffled := func(rs []dataset.IngestRow) []dataset.IngestRow {
		rs = slices.Clone(rs)
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		return rs
	}
	half := len(rows) / 2
	cases := []struct {
		name  string
		build func(f *compactFixture, zoom int)
	}{
		{"random splits", func(f *compactFixture, _ int) {
			rs := shuffled(rows)
			for len(rs) > 0 {
				n := min(len(rs), 1+rng.Intn(1500))
				f.seal(rs[:n])
				rs = rs[n:]
			}
		}},
		{"previous compaction", func(f *compactFixture, zoom int) {
			f.seal(rows[:1000])
			f.seal(rows[1000:half])
			if _, err := CompactWith(f.dir, CompactOptions{ClusterZoom: zoom}); err != nil {
				t.Fatal(err)
			}
			f.seal(rows[half:])
		}},
		{"previous compaction, other layout", func(f *compactFixture, zoom int) {
			f.seal(rows[:half])
			other := opendata.TileZoom
			if zoom > 0 {
				other = 0
			}
			if _, err := CompactWith(f.dir, CompactOptions{ClusterZoom: other}); err != nil {
				t.Fatal(err)
			}
			f.seal(rows[half:])
		}},
		{"v2 segments", func(f *compactFixture, _ int) {
			f.seal(rows[:1000])
			f.write(dataset.EncodeIngestSegmentSketches(dataset.ColumnizeIngest(shuffled(rows[1000:half])), nil))
			f.write(dataset.EncodeIngestSegment(dataset.ColumnizeIngest(nil)))
			f.seal(rows[half:])
		}},
		{"other group size and zoom", func(f *compactFixture, _ int) {
			f.write(zoned(rows[:1000], opendata.TileZoom, 100))
			f.write(zoned(rows[1000:half], 12, 0))
			f.seal(rows[half:])
		}},
		{"duplicates across runs", func(f *compactFixture, _ int) {
			f.seal(rows[:half])
			f.seal(rows[half/2 : half+half/2])
			f.write(zoned(rows[:500], opendata.TileZoom, 64))
			f.write(dataset.EncodeIngestSegment(dataset.ColumnizeIngest(shuffled(rows[:700]))))
			// Near duplicates tie on quadkey, city and test id, so only
			// the full row order settles them.
			near := slices.Clone(rows[:900])
			for i := range near {
				near[i].DownloadMbps += float64(i%3) - 1
				near[i].Tier = (near[i].Tier + i%2) % 7
			}
			f.seal(near)
		}},
	}
	for _, zoom := range []int{0, opendata.TileZoom} {
		for _, c := range cases {
			f := newCompactFixture(t, rows)
			c.build(f, zoom)
			opts := CompactOptions{ClusterZoom: zoom}
			want := sortCompact(t, f.dir, opts)
			path, err := CompactWith(f.dir, opts)
			if err != nil {
				t.Fatalf("zoom %d, %s: %v", zoom, c.name, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("zoom %d, %s: merged %d bytes that differ from the sorted compaction's %d", zoom, c.name, len(got), len(want))
			}
			if names := segmentNames(t, f.dir); len(names) != 1 || names[0] != CompactedName {
				t.Fatalf("zoom %d, %s: directory holds %v after compaction", zoom, c.name, names)
			}
		}
	}
}

// TestCompactRejectsUnorderedZonedSegment: a segment zoned at the output's
// zoom and seed whose rows are not in clustered order fails the
// compaction with an error naming it, and leaves the directory as it was.
func TestCompactRejectsUnorderedZonedSegment(t *testing.T) {
	rows := testRows(3000, 43)
	f := newCompactFixture(t, rows)
	f.seal(rows[:1000])
	bad := slices.Clone(rows[1000:2000])
	slices.Reverse(bad)
	badName := filepath.Base(f.p.segmentPath(f.seq))
	f.write(dataset.EncodeIngestSegmentZoned(dataset.ColumnizeIngest(bad), nil, opendata.NewZoneOptions(opendata.TileZoom, 0)))
	f.seal(rows[2000:])
	before := segmentNames(t, f.dir)

	_, err := CompactWith(f.dir, CompactOptions{ClusterZoom: opendata.TileZoom})
	if err == nil || !strings.Contains(err.Error(), badName) || !strings.Contains(err.Error(), "out of clustered order") {
		t.Fatalf("compaction error %v, want one naming %s as out of clustered order", err, badName)
	}
	if after := segmentNames(t, f.dir); !slices.Equal(after, before) {
		t.Fatalf("directory holds %v after the failed compaction, want %v", after, before)
	}
	if _, err := os.Stat(filepath.Join(f.dir, CompactedName)); !os.IsNotExist(err) {
		t.Fatalf("failed compaction left %s (stat: %v)", CompactedName, err)
	}
	// The same file is only sorted alone, never checked, in a v2 merge.
	if _, err := CompactWith(f.dir, CompactOptions{}); err != nil {
		t.Fatalf("v2 compaction of the same directory: %v", err)
	}
}

// allocatedBy returns the bytes the heap allocated while f ran on the
// calling goroutine (the TotalAlloc delta).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCompactAllocsBounded: a clustered compaction of 4 and of 16 sealed
// 65,536-row segments allocates at most 1.5× its output file plus 4 MB,
// and so does one seal against its segment. Both write the image a zone
// group at a time; output columns held whole (about 120 B a row, three
// times the image) cannot fit the bound.
func TestCompactAllocsBounded(t *testing.T) {
	const slack = 4 << 20
	check := func(what string, alloc uint64, file int64) {
		t.Helper()
		bound := uint64(1.5*float64(file)) + slack
		t.Logf("%s: allocated %.1f MB for a %.1f MB file (bound %.1f MB)", what, float64(alloc)/1e6, float64(file)/1e6, float64(bound)/1e6)
		if alloc > bound {
			t.Errorf("%s allocated %d bytes, over 1.5× its %d-byte file plus 4 MB", what, alloc, file)
		}
	}
	p, images := compactSegments(t, 16)

	batch := testRows(65536, 61)
	var err error
	alloc := allocatedBy(func() { err = p.seal(batch, len(images)) })
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(p.segmentPath(len(images)))
	if err != nil {
		t.Fatal(err)
	}
	check("seal", alloc, st.Size())

	for _, segs := range []int{4, 16} {
		names, err := listSegments(p.cfg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := os.Remove(filepath.Join(p.cfg.Dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		for s, img := range images[:segs] {
			if err := os.WriteFile(p.segmentPath(s), img, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var path string
		alloc := allocatedBy(func() { path, err = CompactWith(p.cfg.Dir, CompactOptions{ClusterZoom: opendata.TileZoom}) })
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("compaction of %d segments", segs), alloc, st.Size())
	}
}
