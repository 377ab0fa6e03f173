package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

func getTiles(t testing.TB, client *http.Client, url, params string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url + "/v1/tiles" + params)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestTilesEndpointIdentity is the serving-path determinism gate: the
// /v1/tiles bytes from a server that watched segments seal one by one
// equal the library-path rendering of the same rows, survive a Compact
// (refold) unchanged, and equal a cold-restarted server's first response.
func TestTilesEndpointIdentity(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	ts, srv, p := startServer(t, dir, PipelineConfig{BatchRows: 100, MaxBatchAge: -1}, cls)
	defer ts.Close()
	client := ts.Client()
	for i := range rows {
		postOne(t, client, ts.URL, &rows[i])
	}
	// Mid-run probe: sealing is asynchronous, so only the status is
	// asserted here.
	if code, body := getTiles(t, client, ts.URL, ""); code != http.StatusOK {
		t.Fatalf("mid-run /v1/tiles = %d: %s", code, body)
	}
	if err := p.Close(); err != nil { // seals the tail
		t.Fatal(err)
	}

	code, live := getTiles(t, client, ts.URL, "")
	if code != http.StatusOK {
		t.Fatalf("/v1/tiles = %d: %s", code, live)
	}

	// Library-path expectation over the same submissions, tiers recomputed
	// exactly as the server stamped them.
	exp := &tilequery.Rows{}
	for i := range rows {
		r := &rows[i]
		a := cls[r.City].ClassifyOne(r.DownloadMbps, r.UploadMbps)
		exp.UserID = append(exp.UserID, r.UserID)
		exp.City = append(exp.City, r.City)
		exp.Download = append(exp.Download, r.DownloadMbps)
		exp.Upload = append(exp.Upload, r.UploadMbps)
		exp.Latency = append(exp.Latency, r.LatencyMs)
		exp.Tier = append(exp.Tier, a.Tier)
	}
	tiles, err := tilequery.Aggregate(exp, tilequery.Config{}, tilequery.Query{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tilequery.AppendTilesJSON(nil, opendata.TileZoom, tiles, "")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(live, want) {
		t.Fatalf("endpoint bytes diverge from library aggregation (%d vs %d bytes)", len(live), len(want))
	}

	// Warm repeat: identical bytes, served from the result cache.
	if _, again := getTiles(t, client, ts.URL, ""); !bytes.Equal(again, live) {
		t.Fatal("warm response differs from cold response")
	}
	if st := srv.tiles.stats(); st.CacheHits == 0 {
		t.Fatalf("warm query hit no cache entries: %+v", st)
	}

	// Compaction rewrites the directory into one segment; the replayed fold
	// must reproduce the same bytes.
	if _, err := CompactWith(dir, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, after := getTiles(t, client, ts.URL, ""); !bytes.Equal(after, live) {
		t.Fatal("response changed across Compact")
	}
	if st := srv.tiles.stats(); st.Refolds != 1 || st.Segments != 1 {
		t.Fatalf("expected one refold over one segment: %+v", st)
	}
	if st := srv.tiles.stats(); st.ColsSkipped == 0 || st.ColsDecoded == 0 {
		t.Fatalf("pruned fold decoded no/all columns: %+v", st)
	}

	// A cold server over the same directory answers identically at once.
	ts2, _, p2 := startServer(t, dir, PipelineConfig{}, cls)
	defer ts2.Close()
	defer p2.Close()
	if _, cold := getTiles(t, ts2.Client(), ts2.URL, ""); !bytes.Equal(cold, live) {
		t.Fatal("cold-restart response differs from live-fold response")
	}
}

func TestTilesEndpointQueries(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	ts, _, p := startServer(t, dir, PipelineConfig{}, cls)
	defer ts.Close()
	client := ts.Client()
	for i := range rows {
		postOne(t, client, ts.URL, &rows[i])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// bbox around one fixture city's box selects exactly that city's tiles.
	city := rows[0].City
	c := opendata.CityCenter(city)
	bbox := fmt.Sprintf("?bbox=%g,%g,%g,%g", c.Lat-0.11, c.Lon-0.11, c.Lat+0.11, c.Lon+0.11)
	code, got := getTiles(t, client, ts.URL, bbox)
	if code != http.StatusOK {
		t.Fatalf("bbox query = %d: %s", code, got)
	}
	exp := &tilequery.Rows{}
	for i := range rows {
		r := &rows[i]
		if r.City != city {
			continue
		}
		a := cls[r.City].ClassifyOne(r.DownloadMbps, r.UploadMbps)
		exp.UserID = append(exp.UserID, r.UserID)
		exp.City = append(exp.City, r.City)
		exp.Download = append(exp.Download, r.DownloadMbps)
		exp.Upload = append(exp.Upload, r.UploadMbps)
		exp.Latency = append(exp.Latency, r.LatencyMs)
		exp.Tier = append(exp.Tier, a.Tier)
	}
	tiles, err := tilequery.Aggregate(exp, tilequery.Config{}, tilequery.Query{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tilequery.AppendTilesJSON(nil, opendata.TileZoom, tiles, "")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("bbox response does not isolate city %s tiles", city)
	}

	// Roll-up zoom plus metric projection.
	code, proj := getTiles(t, client, ts.URL, "?zoom=12&metric=download")
	if code != http.StatusOK || !bytes.Contains(proj, []byte(`"metric":"download"`)) {
		t.Fatalf("metric query = %d: %.120s", code, proj)
	}
	// CSV format carries the full schema header.
	code, csvBody := getTiles(t, client, ts.URL, "?format=csv")
	if code != http.StatusOK || !strings.HasPrefix(string(csvBody), "quadkey,avg_d_kbps,") {
		t.Fatalf("csv query = %d: %.120s", code, csvBody)
	}

	// Parameter validation.
	for _, bad := range []string{
		"?zoom=0", "?zoom=17", "?zoom=x", "?metric=nope",
		"?bbox=1,2,3", "?bbox=1,x,3,4", "?bbox=9,9,1,1", // field count, non-number, inverted
		"?bbox=NaN,NaN,NaN,NaN", "?bbox=34.3,NaN,34.5,-119.6", "?bbox=34.3,-119.8,Inf,-119.6",
	} {
		if code, body := getTiles(t, client, ts.URL, bad); code != http.StatusBadRequest {
			t.Fatalf("%s = %d (%.80s), want 400", bad, code, body)
		}
	}
	resp, err := client.Post(ts.URL+"/v1/tiles", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/tiles = %d, want 405", resp.StatusCode)
	}

	// statsz exposes the tile_cache block.
	resp, err = client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(stats, []byte(`"tile_cache":{"rows":`)) {
		t.Fatalf("statsz misses tile_cache: %s", stats)
	}
}

// TestTilesPushdownClustered is the serving-path pushdown gate: after a
// clustered compaction, a bbox query through the pushdown scan path skips
// row groups outside the bbox yet renders bytes identical to the engine
// path (?push=0), and /statsz totals the row groups it scanned and skipped.
func TestTilesPushdownClustered(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	ts, srv, p := startServer(t, dir, PipelineConfig{}, cls)
	defer ts.Close()
	client := ts.Client()
	for i := range rows {
		postOne(t, client, ts.URL, &rows[i])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Cluster-compact with tiny zone groups so even the fixture's row count
	// spans many groups; the two fixture cities land in disjoint quadkey
	// runs, so a one-city bbox must skip the other city's groups entirely.
	if _, err := CompactWith(dir, CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: 16}); err != nil {
		t.Fatal(err)
	}

	c := opendata.CityCenter(rows[0].City)
	bbox := fmt.Sprintf("?bbox=%g,%g,%g,%g", c.Lat-0.11, c.Lon-0.11, c.Lat+0.11, c.Lon+0.11)
	code, pushed := getTiles(t, client, ts.URL, bbox)
	if code != http.StatusOK {
		t.Fatalf("pushdown bbox query = %d: %s", code, pushed)
	}
	code, engine := getTiles(t, client, ts.URL, bbox+"&push=0")
	if code != http.StatusOK {
		t.Fatalf("push=0 bbox query = %d: %s", code, engine)
	}
	if !bytes.Equal(pushed, engine) {
		t.Fatal("pushdown response differs from engine response")
	}

	st := srv.tiles.stats()
	if st.PushQueries != 1 || st.PushSkipHits != 1 {
		t.Fatalf("pushdown counters: %d queries, %d skip hits, want 1/1", st.PushQueries, st.PushSkipHits)
	}
	if st.PushBlocksSkipped == 0 || st.PushBlocksScanned == 0 {
		t.Fatalf("pushdown scanned %d / skipped %d groups, want both > 0", st.PushBlocksScanned, st.PushBlocksSkipped)
	}

	// /statsz renders the pushdown block with its block totals.
	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`"pushdown":{"queries":1,"skip_hits":1,"hit_rate":1.000`,
		fmt.Sprintf(`"blocks_scanned":%d,"blocks_skipped":%d}`, st.PushBlocksScanned, st.PushBlocksSkipped),
	} {
		if !bytes.Contains(stats, []byte(want)) {
			t.Fatalf("statsz misses %s: %s", want, stats)
		}
	}

	// An unclustered directory degrades to full reads: identical bytes,
	// zero skips, and the hit-rate reflects the miss.
	dir2 := t.TempDir()
	ts2, srv2, p2 := startServer(t, dir2, PipelineConfig{}, cls)
	defer ts2.Close()
	client2 := ts2.Client()
	for i := range rows {
		postOne(t, client2, ts2.URL, &rows[i])
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactWith(dir2, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	code, flat := getTiles(t, client2, ts2.URL, bbox)
	if code != http.StatusOK {
		t.Fatalf("unclustered bbox query = %d: %s", code, flat)
	}
	if !bytes.Equal(flat, pushed) {
		t.Fatal("unclustered response differs from clustered response")
	}
	if st2 := srv2.tiles.stats(); st2.PushQueries != 1 || st2.PushSkipHits != 0 {
		t.Fatalf("unclustered pushdown counters: %+v", st2)
	}
}

// TestTilesPushdownMixedStore runs an interleaved bbox query sequence over
// the store shape the serving path sees in production: a clustered
// compacted snapshot plus two unzoned fresh segments. Every response —
// pushdown, push=0, roll-up — must equal the in-memory fold of the same
// rows, the pushdown /statsz counters must account every query, every row
// and every row group its scans yielded or skipped, and a neighbourhood
// query must drop rows before they reach an accumulator.
func TestTilesPushdownMixedStore(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	ts1, _, p1 := startServer(t, dir, PipelineConfig{}, cls)
	client := ts1.Client()
	for i := range rows {
		postOne(t, client, ts1.URL, &rows[i])
	}
	ts1.Close()
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactWith(dir, CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: 16}); err != nil {
		t.Fatal(err)
	}
	// Every other fixture row again, sealed unclustered into two segments.
	var fresh []dataset.IngestRow
	for i := 0; i < len(rows); i += 2 {
		fresh = append(fresh, rows[i])
	}
	ts, srv, p := startServer(t, dir, PipelineConfig{BatchRows: (len(fresh) + 1) / 2, MaxBatchAge: -1}, cls)
	defer ts.Close()
	client = ts.Client()
	for i := range fresh {
		postOne(t, client, ts.URL, &fresh[i])
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if names := segmentNames(t, dir); len(names) != 3 {
		t.Fatalf("store holds %d segments, want the compacted one plus two fresh: %v", len(names), names)
	}

	ref := tilequery.NewIndex(tilequery.Config{})
	for _, set := range [][]dataset.IngestRow{rows, fresh} {
		exp := &tilequery.Rows{}
		for i := range set {
			r := &set[i]
			exp.UserID = append(exp.UserID, r.UserID)
			exp.City = append(exp.City, r.City)
			exp.Download = append(exp.Download, r.DownloadMbps)
			exp.Upload = append(exp.Upload, r.UploadMbps)
			exp.Latency = append(exp.Latency, r.LatencyMs)
			exp.Tier = append(exp.Tier, cls[r.City].ClassifyOne(r.DownloadMbps, r.UploadMbps).Tier)
		}
		if _, err := ref.AddRows(exp); err != nil {
			t.Fatal(err)
		}
	}

	type tq struct {
		zoom   int
		bbox   [4]float64 // zero = no bbox
		push   bool
		metric string
	}
	around := func(lat, lon, d float64) [4]float64 { return [4]float64{lat - d, lon - d, lat + d, lon + d} }
	var seq []tq
	for k, r := range []dataset.IngestRow{rows[0], rows[len(rows)-1], rows[0]} {
		loc := opendata.UserLocation(opendata.CityCenter(r.City), opendata.DefaultLocSeed, r.UserID)
		c := opendata.CityCenter(r.City)
		seq = append(seq,
			tq{zoom: 16, bbox: around(loc.Lat, loc.Lon, 0.001), push: true},
			tq{zoom: 12},
			tq{zoom: 12, bbox: around(c.Lat, c.Lon, 0.11), push: k != 1},
			tq{zoom: 16, bbox: around(loc.Lat, loc.Lon, 0.001), push: false},
			tq{zoom: 14, bbox: around(c.Lat+0.03, c.Lon-0.03, 0.03), push: true, metric: "download"},
			tq{zoom: 16},
		)
	}

	pushdownStats := func() (queries uint64, folded, filtered int64) {
		st := srv.tiles.stats()
		return st.PushQueries, st.PushRowsFolded, st.PushRowsFiltered
	}
	var wantQueries, wantSkipHits, wantYield, wantScanned, wantSkipped int64
	for i, q := range seq {
		params := fmt.Sprintf("?zoom=%d", q.zoom)
		query := tilequery.Query{Zoom: q.zoom}
		if q.bbox != [4]float64{} {
			params += fmt.Sprintf("&bbox=%g,%g,%g,%g", q.bbox[0], q.bbox[1], q.bbox[2], q.bbox[3])
			rng, err := opendata.TileRangeForBBox(q.bbox[0], q.bbox[1], q.bbox[2], q.bbox[3], q.zoom)
			if err != nil {
				t.Fatal(err)
			}
			query.Range = &rng
			if !q.push {
				params += "&push=0"
			}
		}
		if q.metric != "" {
			params += "&metric=" + q.metric
		}
		tiles, err := ref.Tiles(query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tilequery.AppendTilesJSON(nil, q.zoom, tiles, q.metric)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')

		q0, f0, d0 := pushdownStats()
		code, got := getTiles(t, client, ts.URL, params)
		if code != http.StatusOK {
			t.Fatalf("query %d %s = %d: %s", i, params, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("query %d %s: response differs from the in-memory fold", i, params)
		}
		q1, f1, d1 := pushdownStats()
		pushed := query.Range != nil && q.push
		if !pushed {
			if q1 != q0 || f1 != f0 || d1 != d0 {
				t.Fatalf("query %d %s: engine-path query moved the pushdown counters", i, params)
			}
			continue
		}
		if i == 0 && d1-d0 == 0 {
			t.Fatalf("neighbourhood query %s filtered no rows", params)
		}
		sel := tileSelection
		sel.Predicate = query.Range.ZonePredicate()
		yield, scanned, skipped := scanYield(t, dir, sel)
		if f1-f0+d1-d0 != yield {
			t.Fatalf("query %d %s: folded %d + filtered %d rows, scans yielded %d", i, params, f1-f0, d1-d0, yield)
		}
		wantQueries++
		wantYield += yield
		wantScanned += scanned
		wantSkipped += skipped
		if skipped > 0 {
			wantSkipHits++
		}
	}

	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Pushdown struct {
			Queries       int64 `json:"queries"`
			SkipHits      int64 `json:"skip_hits"`
			RowsFolded    int64 `json:"rows_folded"`
			RowsFiltered  int64 `json:"rows_filtered"`
			BlocksScanned int64 `json:"blocks_scanned"`
			BlocksSkipped int64 `json:"blocks_skipped"`
		} `json:"pushdown"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	pd := st.Pushdown
	if pd.Queries != wantQueries || pd.SkipHits != wantSkipHits {
		t.Fatalf("statsz pushdown: %d queries, %d skip hits; want %d, %d", pd.Queries, pd.SkipHits, wantQueries, wantSkipHits)
	}
	if pd.SkipHits == 0 || pd.RowsFiltered == 0 {
		t.Fatalf("statsz pushdown: %+v, want skips and filtered rows", pd)
	}
	if pd.RowsFolded+pd.RowsFiltered != wantYield {
		t.Fatalf("statsz pushdown: folded %d + filtered %d rows, scans yielded %d", pd.RowsFolded, pd.RowsFiltered, wantYield)
	}
	if pd.BlocksScanned != wantScanned || pd.BlocksSkipped != wantSkipped {
		t.Fatalf("statsz pushdown: %d blocks scanned, %d skipped; scans counted %d, %d", pd.BlocksScanned, pd.BlocksSkipped, wantScanned, wantSkipped)
	}
}

// segmentNames lists the .sxc files of a segment directory.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), segmentSuffix) {
			names = append(names, e.Name())
		}
	}
	return names
}

// scanYield drains every segment of dir under sel and returns the rows the
// scans yielded, the blocks they decoded and the row groups their zone
// maps skipped.
func scanYield(t *testing.T, dir string, sel dataset.SnapshotSelection) (rows, scanned, skipped int64) {
	t.Helper()
	for _, name := range segmentNames(t, dir) {
		src, err := dataset.OpenFileSource(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := dataset.NewBlockScanner(src, sel, 0)
		if err != nil {
			t.Fatal(err)
		}
		for sc.Scan() {
			rows += int64(sc.Batch().Rows)
		}
		err = sc.Err()
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		ctr := sc.Counters()
		scanned += int64(ctr.BlocksScanned)
		skipped += int64(ctr.BlocksSkipped)
	}
	return rows, scanned, skipped
}

// TestTilesErrorHidesPaths removes the segment directory under a live
// server: an engine query, a bbox pushdown query and a CSV query then
// fail with 500, and each body is exactly the fixed text, with no server
// path in it. The detail, path included, goes to ServerConfig.Logf.
func TestTilesErrorHidesPaths(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := filepath.Join(t.TempDir(), "segments")
	p, err := NewPipeline(PipelineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logged []string
	srv := NewServer(p, StaticModels(cls), ServerConfig{Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	postOne(t, client, ts.URL, &rows[0])
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := getTiles(t, client, ts.URL, ""); code != http.StatusOK {
		t.Fatalf("tiles before the removal = %d: %s", code, body)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	c := opendata.CityCenter(rows[0].City)
	bbox := fmt.Sprintf("bbox=%g,%g,%g,%g", c.Lat-0.11, c.Lon-0.11, c.Lat+0.11, c.Lon+0.11)
	for _, params := range []string{"", "?" + bbox, "?format=csv", "?format=csv&" + bbox} {
		code, body := getTiles(t, client, ts.URL, params)
		if code != http.StatusInternalServerError || string(body) != tilesFailedText+"\n" {
			t.Fatalf("tiles%s after the removal = %d %q, want 500 %q", params, code, body, tilesFailedText)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 4 {
		t.Fatalf("Logf got %d lines, want one per failed query: %q", len(logged), logged)
	}
	for _, line := range logged {
		if !strings.Contains(line, dir) {
			t.Fatalf("logged %q, want the failure's detail naming %s", line, dir)
		}
	}
}

// TestSealedSegmentsSkipWithoutCompaction seals four cities' rows in
// 8,192-row batches and never compacts: each sealed segment is zoned and
// clustered on its own, so a zoom-16 neighbourhood bbox query skips row
// groups of the fresh segments and still renders the in-memory fold of the
// same rows.
func TestSealedSegmentsSkipWithoutCompaction(t *testing.T) {
	const batch = 8192
	rows := testRows(4*batch, 25)
	dir := t.TempDir()
	p, err := NewPipeline(PipelineConfig{Dir: dir, BatchRows: batch, MaxBatchAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, nil, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := range rows {
		if err := p.Submit(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if names := segmentNames(t, dir); len(names) != 4 {
		t.Fatalf("store holds %v, want four sealed segments", names)
	}

	ref := tilequery.NewIndex(tilequery.Config{})
	exp := &tilequery.Rows{}
	for i := range rows {
		r := &rows[i]
		exp.UserID = append(exp.UserID, r.UserID)
		exp.City = append(exp.City, r.City)
		exp.Download = append(exp.Download, r.DownloadMbps)
		exp.Upload = append(exp.Upload, r.UploadMbps)
		exp.Latency = append(exp.Latency, r.LatencyMs)
		exp.Tier = append(exp.Tier, r.Tier)
	}
	if _, err := ref.AddRows(exp); err != nil {
		t.Fatal(err)
	}
	r := rows[len(rows)/3]
	loc := opendata.UserLocation(opendata.CityCenter(r.City), opendata.DefaultLocSeed, r.UserID)
	box := [4]float64{loc.Lat - 0.001, loc.Lon - 0.001, loc.Lat + 0.001, loc.Lon + 0.001}
	rng, err := opendata.TileRangeForBBox(box[0], box[1], box[2], box[3], opendata.TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := ref.Tiles(tilequery.Query{Zoom: opendata.TileZoom, Range: &rng})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tilequery.AppendTilesJSON(nil, opendata.TileZoom, tiles, "")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	client := ts.Client()
	code, got := getTiles(t, client, ts.URL, fmt.Sprintf("?bbox=%g,%g,%g,%g", box[0], box[1], box[2], box[3]))
	if code != http.StatusOK {
		t.Fatalf("neighbourhood query = %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("neighbourhood query renders %s, the in-memory fold %s", got, want)
	}
	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Pushdown struct {
			Queries       int64 `json:"queries"`
			BlocksScanned int64 `json:"blocks_scanned"`
			BlocksSkipped int64 `json:"blocks_skipped"`
		} `json:"pushdown"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if pd := st.Pushdown; pd.Queries != 1 || pd.BlocksSkipped == 0 {
		t.Fatalf("statsz pushdown: %+v, want one query that skipped row groups", pd)
	}
}
