package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// TestPushdownProjectionIdentity: over a mixed store (a compacted, zoned
// ingest.sxc plus two fresh sealed segments), a pushdown query decodes
// only the columns its response renders, and still answers exactly the
// bytes of the push=0 engine path and of the in-memory fold of every row.
// Each bbox runs every metric in both formats; JSON and CSV queries take
// turns, so every scan reuses the buffers of a scan under another
// selection. A single-metric query must decode fewer column blocks than
// the full-schema query over the same bbox, so the projection cannot
// silently fall back to all six columns.
func TestPushdownProjectionIdentity(t *testing.T) {
	rows := testRows(3000, 33)
	dir := t.TempDir()
	seal := func(rows []dataset.IngestRow, batch int) *Pipeline {
		p, err := NewPipeline(PipelineConfig{Dir: dir, BatchRows: batch, MaxBatchAge: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := p.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	seal(rows, len(rows))
	if _, err := CompactWith(dir, CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: 64}); err != nil {
		t.Fatal(err)
	}
	// Every third row again under a new test id, sealed into two fresh
	// segments.
	var fresh []dataset.IngestRow
	for i := 0; i < len(rows); i += 3 {
		r := rows[i]
		r.TestID += len(rows)
		fresh = append(fresh, r)
	}
	p := seal(fresh, (len(fresh)+1)/2)
	if names := segmentNames(t, dir); len(names) != 3 {
		t.Fatalf("store holds %d segments, want the compacted one plus two fresh: %v", len(names), names)
	}
	srv := NewServer(p, nil, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	all := &tilequery.Rows{}
	for _, set := range [][]dataset.IngestRow{rows, fresh} {
		for _, r := range set {
			all.UserID = append(all.UserID, r.UserID)
			all.City = append(all.City, r.City)
			all.Download = append(all.Download, r.DownloadMbps)
			all.Upload = append(all.Upload, r.UploadMbps)
			all.Latency = append(all.Latency, r.LatencyMs)
			all.Tier = append(all.Tier, r.Tier)
		}
	}

	c := opendata.CityCenter(rows[0].City)
	loc := opendata.UserLocation(c, opendata.DefaultLocSeed, rows[0].UserID)
	for _, b := range []struct {
		name        string
		lat, lon, d float64
		zoom        int
	}{
		{"nbhd", loc.Lat, loc.Lon, 0.002, opendata.TileZoom},
		{"city", c.Lat, c.Lon, 0.11, 12},
		{"empty", 10, 10, 0.01, 14},
	} {
		rng, err := opendata.TileRangeForBBox(b.lat-b.d, b.lon-b.d, b.lat+b.d, b.lon+b.d, b.zoom)
		if err != nil {
			t.Fatal(err)
		}
		tiles, err := tilequery.Aggregate(all, tilequery.Config{}, tilequery.Query{Zoom: b.zoom, Range: &rng})
		if err != nil {
			t.Fatal(err)
		}
		if (len(tiles) == 0) != (b.name == "empty") {
			t.Fatalf("%s bbox covers %d tiles", b.name, len(tiles))
		}
		var wantCSV bytes.Buffer
		if err := tilequery.WriteTilesCSV(&wantCSV, tiles); err != nil {
			t.Fatal(err)
		}
		bbox := fmt.Sprintf("?zoom=%d&bbox=%g,%g,%g,%g", b.zoom, b.lat-b.d, b.lon-b.d, b.lat+b.d, b.lon+b.d)
		cols := map[string]int64{}
		for _, metric := range append([]string{""}, tilequery.Metrics...) {
			want, err := tilequery.AppendTilesJSON(nil, b.zoom, tiles, metric)
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range []string{"json", "csv"} {
				params := bbox + "&metric=" + metric + "&format=" + format
				wantBody := append(want, '\n')
				if format == "csv" {
					wantBody = wantCSV.Bytes()
				}
				before := srv.tiles.stats().PushColsDecoded
				for _, push := range []string{"", "&push=0"} {
					code, got := getTiles(t, client, ts.URL, params+push)
					if code != http.StatusOK {
						t.Fatalf("%s %s = %d: %s", b.name, params+push, code, got)
					}
					if !bytes.Equal(got, wantBody) {
						t.Fatalf("%s %s: response differs from the in-memory fold", b.name, params+push)
					}
				}
				if format == "json" {
					cols[metric] = srv.tiles.stats().PushColsDecoded - before
				}
			}
		}
		if b.name == "empty" {
			continue
		}
		for _, metric := range tilequery.Metrics {
			if cols[metric] >= cols[""] {
				t.Fatalf("%s metric=%s: decoded %d column blocks, the full query %d", b.name, metric, cols[metric], cols[""])
			}
		}
		if cols["tests"] >= cols["download"] || cols["devices"] != cols["tests"] {
			t.Fatalf("%s: decoded %d column blocks for tests, %d for devices, %d for download", b.name, cols["tests"], cols["devices"], cols["download"])
		}
	}

	// /statsz reports the same column total.
	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Pushdown struct {
			ColsDecoded *int64 `json:"cols_decoded"`
		} `json:"pushdown"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Pushdown.ColsDecoded, srv.tiles.stats().PushColsDecoded; got == nil || *got != want || want == 0 {
		t.Fatalf("statsz pushdown cols_decoded = %v, want %d", got, want)
	}
}

// TestTilesUnknownMetricScansNothing: a query naming an unknown metric is
// answered 400 before any scan or refresh, in either format and on either
// path, so it never picks a projection: the pushdown counters, the folded
// segment count and the directory parses all stay at zero.
func TestTilesUnknownMetricScansNothing(t *testing.T) {
	f := newDirCacheFixture(t)
	city := f.queries(t)[1].params
	for _, params := range []string{
		city + "&metric=nope",
		city + "&metric=nope&format=csv",
		city + "&metric=nope&push=0",
		"?zoom=12&metric=Download",
	} {
		if code, body := getTiles(t, f.client, f.url, params); code != http.StatusBadRequest {
			t.Fatalf("%s = %d: %s, want 400", params, code, body)
		}
	}
	resp, err := f.client.Get(f.url + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		TileCache struct {
			Segments  *int `json:"segments"`
			DirParses *int `json:"dir_parses"`
		} `json:"tile_cache"`
		Pushdown struct {
			Queries *int `json:"queries"`
		} `json:"pushdown"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Pushdown.Queries == nil || *st.Pushdown.Queries != 0 || st.TileCache.Segments == nil || *st.TileCache.Segments != 0 ||
		st.TileCache.DirParses == nil || *st.TileCache.DirParses != 0 {
		t.Fatalf("after unknown-metric queries: pushdown queries %v, folded segments %v, directory parses %v; want 0, 0, 0",
			st.Pushdown.Queries, st.TileCache.Segments, st.TileCache.DirParses)
	}
	// The same city bbox with a known metric runs its one pushdown scan.
	f.check(t, f.queries(t)[1])
}
