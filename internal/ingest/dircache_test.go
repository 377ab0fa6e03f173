package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// dirCacheFixture is a server over three sealed segments of the
// classifier fixture rows, with its pipeline closed, the in-memory fold
// every response must render, and the lines the server logged.
type dirCacheFixture struct {
	dir    string
	url    string
	client *http.Client
	rows   []dataset.IngestRow
	ref    *tilequery.Index

	logMu  sync.Mutex
	logged []string
}

func newDirCacheFixture(t *testing.T) *dirCacheFixture {
	t.Helper()
	cls, rows := loadClassifiers(t)
	f := &dirCacheFixture{dir: t.TempDir(), rows: rows}
	p, err := NewPipeline(PipelineConfig{Dir: f.dir, BatchRows: (len(rows) + 2) / 3, MaxBatchAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, StaticModels(cls), ServerConfig{Logf: func(format string, args ...any) {
		f.logMu.Lock()
		f.logged = append(f.logged, fmt.Sprintf(format, args...))
		f.logMu.Unlock()
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	f.url, f.client = ts.URL, ts.Client()
	for i := range rows {
		postOne(t, f.client, f.url, &rows[i])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if names := segmentNames(t, f.dir); len(names) != 3 {
		t.Fatalf("sealed %d segments, want 3: %v", len(names), names)
	}
	f.ref = tilesReference(t, cls, rows)
	return f
}

// tilesReference folds rows, classified as the server classifies them,
// into an in-memory index.
func tilesReference(t *testing.T, cls map[string]*core.Classifier, rows []dataset.IngestRow) *tilequery.Index {
	t.Helper()
	exp := &tilequery.Rows{}
	for i := range rows {
		r := &rows[i]
		exp.UserID = append(exp.UserID, r.UserID)
		exp.City = append(exp.City, r.City)
		exp.Download = append(exp.Download, r.DownloadMbps)
		exp.Upload = append(exp.Upload, r.UploadMbps)
		exp.Latency = append(exp.Latency, r.LatencyMs)
		exp.Tier = append(exp.Tier, cls[r.City].ClassifyOne(r.DownloadMbps, r.UploadMbps).Tier)
	}
	ref := tilequery.NewIndex(tilequery.Config{})
	if _, err := ref.AddRows(exp); err != nil {
		t.Fatal(err)
	}
	return ref
}

// tileQuery is one /v1/tiles request and the query it renders.
type tileQuery struct {
	params string
	q      tilequery.Query
}

// queries returns the fixture's query mix: for the first row of each
// city, a neighbourhood and a city bbox through the pushdown path, the
// city bbox through the engine path, and an unrestricted roll-up.
func (f *dirCacheFixture) queries(t *testing.T) []tileQuery {
	t.Helper()
	bbox := func(zoom int, lat, lon, d float64, extra string) tileQuery {
		rng, err := opendata.TileRangeForBBox(lat-d, lon-d, lat+d, lon+d, zoom)
		if err != nil {
			t.Fatal(err)
		}
		return tileQuery{
			params: fmt.Sprintf("?zoom=%d&bbox=%g,%g,%g,%g%s", zoom, lat-d, lon-d, lat+d, lon+d, extra),
			q:      tilequery.Query{Zoom: zoom, Range: &rng},
		}
	}
	var qs []tileQuery
	seen := map[string]bool{}
	for _, r := range f.rows {
		if seen[r.City] {
			continue
		}
		seen[r.City] = true
		loc := opendata.UserLocation(opendata.CityCenter(r.City), opendata.DefaultLocSeed, r.UserID)
		c := opendata.CityCenter(r.City)
		qs = append(qs,
			bbox(16, loc.Lat, loc.Lon, 0.001, ""),
			bbox(12, c.Lat, c.Lon, 0.11, ""),
			bbox(12, c.Lat, c.Lon, 0.11, "&push=0"),
		)
	}
	return append(qs, tileQuery{params: "?zoom=12", q: tilequery.Query{Zoom: 12}})
}

// check sends one query and requires the in-memory fold's bytes.
func (f *dirCacheFixture) check(t *testing.T, tq tileQuery) {
	t.Helper()
	tiles, err := f.ref.Tiles(tq.q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tilequery.AppendTilesJSON(nil, tq.q.Zoom, tiles, "")
	if err != nil {
		t.Fatal(err)
	}
	code, got := getTiles(t, f.client, f.url, tq.params)
	if code != http.StatusOK {
		t.Fatalf("%s = %d: %s", tq.params, code, got)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%s: response differs from the in-memory fold", tq.params)
	}
}

// dirCache reads the directory-cache counters from /statsz.
func (f *dirCacheFixture) dirCache(t *testing.T) (parses, cached int) {
	t.Helper()
	resp, err := f.client.Get(f.url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		TileCache struct {
			DirParses  *int `json:"dir_parses"`
			DirsCached *int `json:"dirs_cached"`
		} `json:"tile_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TileCache.DirParses == nil || st.TileCache.DirsCached == nil {
		t.Fatal("statsz tile_cache lacks dir_parses or dirs_cached")
	}
	return *st.TileCache.DirParses, *st.TileCache.DirsCached
}

// TestTileDirCacheParsesOnce: fifty pushdown queries over an unchanged
// segment directory parse each segment's block directory exactly once.
func TestTileDirCacheParsesOnce(t *testing.T) {
	f := newDirCacheFixture(t)
	qs := f.queries(t)
	for i := 0; i < 50; i++ {
		f.check(t, qs[i%2]) // the pushdown neighbourhood and city queries
	}
	if parses, cached := f.dirCache(t); parses != 3 || cached != 3 {
		t.Fatalf("50 queries over 3 segments: %d directory parses, %d cached; want 3, 3", parses, cached)
	}
}

// TestTileDirCacheCompaction: compaction removes the sealed segments and
// renames a new ingest.sxc into place; a second, differently zoned
// compaction replaces ingest.sxc under the same name. Each new image is
// parsed exactly once, the removed names leave the cache, and every
// response, pushdown or engine path, matches the in-memory fold.
func TestTileDirCacheCompaction(t *testing.T) {
	f := newDirCacheFixture(t)
	qs := f.queries(t)
	for _, q := range qs {
		f.check(t, q)
	}
	if parses, cached := f.dirCache(t); parses != 3 || cached != 3 {
		t.Fatalf("before compaction: %d parses, %d cached; want 3, 3", parses, cached)
	}
	for i, rows := range []int{16, 64} {
		if _, err := CompactWith(f.dir, CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: rows}); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, q := range qs {
				f.check(t, q)
			}
		}
		if parses, cached := f.dirCache(t); parses != 4+i || cached != 1 {
			t.Fatalf("after compaction %d: %d parses, %d cached; want %d, 1", i+1, parses, cached, 4+i)
		}
	}
}

// TestTileDirCacheCorruptPayload: a payload byte flipped in place in a
// cached segment keeps the file's size and trailer, so the cached
// directory is reused, and the scan's block checksum fails the query with
// a 500 — on every later query too, never serving the old tiles. The
// checksum error goes to the server log; the body is the fixed text.
func TestTileDirCacheCorruptPayload(t *testing.T) {
	f := newDirCacheFixture(t)
	push := f.queries(t)[1]
	f.check(t, push)
	path := filepath.Join(f.dir, segmentNames(t, f.dir)[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sealed segments store each download as its raw IEEE 754 bits.
	at := -1
	for _, r := range f.rows {
		if at = bytes.Index(data, binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.DownloadMbps))); at >= 0 {
			break
		}
	}
	if at < 0 {
		t.Fatal("no download payload found in the segment")
	}
	file, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.WriteAt([]byte{data[at] ^ 0x20}, int64(at)); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, body := getTiles(t, f.client, f.url, push.params)
		f.logMu.Lock()
		logged := strings.Join(f.logged, "\n")
		f.logged = nil
		f.logMu.Unlock()
		if code != http.StatusInternalServerError || string(body) != tilesFailedText+"\n" || !strings.Contains(logged, "checksum") {
			t.Fatalf("query %d after corruption = %d: %s, logged %q; want 500 with the fixed text and a logged checksum error", i, code, body, logged)
		}
	}
	if parses, cached := f.dirCache(t); parses != 3 || cached != 3 {
		t.Fatalf("in-place corruption: %d parses, %d cached; want the cached 3, 3", parses, cached)
	}
	// Repaired in place, the segment serves the right tiles again: the
	// scanner that ended in the checksum error was dropped, not recycled.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f.check(t, push)
	f.check(t, f.queries(t)[0])
}

// TestTilesPushdownAllocsFlat: on a warm three-segment store — one
// clustered v3 file plus two v2 segments — a pushdown query allocates no
// more, in count or in bytes, when the store holds 4× the rows. The
// scale-up keeps the store's shape: every row comes four times under new
// test ids and zone groups hold 4× the rows, so the query scans the same
// groups, folds the same tiles and decodes each section in one batch;
// only the blocks grow. Read windows and batch buffers carried over from
// the last query's scanners absorb that growth.
//
// The measured query starts after the directory listing. os.ReadDir
// takes its read buffer from a sync.Pool, and under the race detector a
// pool drops a random quarter of the items put back, so a listing
// allocates 16 or 18 times at random; the listing's cost depends on the
// file count, not on the rows, and with it in the measurement the exact
// comparison below failed about one -race run in fifteen.
func TestTilesPushdownAllocsFlat(t *testing.T) {
	base := testRows(1200, 12)
	for i := range base {
		base[i].UserID %= 16
	}
	loc := opendata.UserLocation(opendata.CityCenter(base[0].City), opendata.DefaultLocSeed, base[0].UserID)
	rng, err := opendata.TileRangeForBBox(loc.Lat-0.001, loc.Lon-0.001, loc.Lat+0.001, loc.Lon+0.001, 16)
	if err != nil {
		t.Fatal(err)
	}
	query := tilequery.Query{Zoom: 16, Range: &rng}
	measure := func(scale int) (allocs float64, bytesPerQuery uint64) {
		dir := t.TempDir()
		var parts [3][]dataset.IngestRow
		for k := 0; k < scale; k++ {
			for i, r := range base {
				r.TestID = k*len(base) + i
				parts[i%3] = append(parts[i%3], r)
			}
		}
		writeSegment := func(seq int, rows []dataset.IngestRow) {
			dataset.SortIngestRows(rows)
			buf, err := dataset.EncodeIngestSegmentSketches(dataset.ColumnizeIngest(rows), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dataset.WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix)), buf); err != nil {
				t.Fatal(err)
			}
		}
		writeSegment(0, parts[0])
		if _, err := CompactWith(dir, CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: 16 * scale}); err != nil {
			t.Fatal(err)
		}
		writeSegment(1, parts[1])
		writeSegment(2, parts[2])

		ref := tilequery.NewIndex(tilequery.Config{})
		for _, part := range parts {
			rows := &tilequery.Rows{}
			for _, r := range part {
				rows.UserID = append(rows.UserID, r.UserID)
				rows.City = append(rows.City, r.City)
				rows.Download = append(rows.Download, r.DownloadMbps)
				rows.Upload = append(rows.Upload, r.UploadMbps)
				rows.Latency = append(rows.Latency, r.LatencyMs)
				rows.Tier = append(rows.Tier, r.Tier)
			}
			if _, err := ref.AddRows(rows); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ref.Tiles(query)
		if err != nil {
			t.Fatal(err)
		}
		ts := newTileServer(dir, 0)
		names, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		ask := func() []opendata.ContextTile {
			ts.mu.Lock()
			defer ts.mu.Unlock()
			got, err := ts.pushdown(names, query)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}
		run := func() { ask() }
		for i := 0; i < 3; i++ { // warm: directories, memo, windows, buffers
			if got := ask(); len(got) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%d× store: pushdown query answered %+v, want %+v", scale, got, want)
			}
		}
		if ts.pushSkipHits == 0 {
			t.Fatalf("%d× store: the query skipped no row group", scale)
		}
		allocs = testing.AllocsPerRun(20, run)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 20; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / 20
	}
	allocs1, bytes1 := measure(1)
	allocs4, bytes4 := measure(4)
	t.Logf("warm pushdown query: %.0f allocs, %d B over the 1× store; %.0f allocs, %d B over the 4× store", allocs1, bytes1, allocs4, bytes4)
	if allocs4 > allocs1 {
		t.Fatalf("pushdown query allocates %.0f times over the 4× store, more than the %.0f over the 1× store", allocs4, allocs1)
	}
	if float64(bytes4) > 1.25*float64(bytes1) {
		t.Fatalf("pushdown query allocates %d B over the 4× store, more than 1.25× the %d B over the 1× store", bytes4, bytes1)
	}
}
