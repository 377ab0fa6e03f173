package ingest

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
)

// percentile reads the q-quantile (0..1) from a sorted latency slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func reportLatencies(b *testing.B, lat []float64) {
	sort.Float64s(lat)
	b.ReportMetric(percentile(lat, 0.50), "p50-lat-ns")
	b.ReportMetric(percentile(lat, 0.95), "p95-lat-ns")
	b.ReportMetric(percentile(lat, 0.99), "p99-lat-ns")
	b.ReportMetric(percentile(lat, 0.999), "p999-lat-ns")
}

// benchIngestHTTP drives the full server path — HTTP, parse, classify,
// submit — with `batch` rows per request, reporting row throughput and
// request-latency percentiles. batch=1 posts to /v1/ingest; larger batches
// post NDJSON to /v1/ingest/batch.
func benchIngestHTTP(b *testing.B, batch int) {
	cls, rows := loadClassifiers(b)
	ts, _, p := startServer(b, b.TempDir(), PipelineConfig{BatchRows: 1 << 16}, cls)
	defer ts.Close()
	defer p.Close()
	client := ts.Client()

	url := ts.URL + "/v1/ingest"
	if batch > 1 {
		url = ts.URL + "/v1/ingest/batch"
	}
	// Pre-render the request bodies outside the timer.
	bodies := make([][]byte, 0, (len(rows)+batch-1)/batch)
	for at := 0; at < len(rows); at += batch {
		var buf []byte
		for j := at; j < at+batch && j < len(rows); j++ {
			buf = AppendSubmission(buf, &rows[j])
			if batch > 1 {
				buf = append(buf, '\n')
			}
		}
		bodies = append(bodies, buf)
	}

	lat := make([]float64, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	reportLatencies(b, lat)
	b.ReportMetric(float64(b.N*batch)/elapsed, "rows/s")
}

func BenchmarkIngestHTTPSingle(b *testing.B)  { benchIngestHTTP(b, 1) }
func BenchmarkIngestHTTPBatch64(b *testing.B) { benchIngestHTTP(b, 64) }

// BenchmarkIngestPipelineSubmit isolates the post-classification path:
// Submit into the pending batch, sealed behind by the sealer goroutine.
func BenchmarkIngestPipelineSubmit(b *testing.B) {
	rows := testRows(4096, 9)
	p, err := NewPipeline(PipelineConfig{Dir: b.TempDir(), BatchRows: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Submit(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSeal times one seal of a full default batch: 65,536
// rows of four cities × 5,000 users in arrival order, sorted, encoded
// and renamed into place over the previous iteration's segment. The batch
// is restored to arrival order outside the timer, since seal sorts it in
// place.
func BenchmarkPipelineSeal(b *testing.B) {
	const n, users = 65536, 5000
	rng := rand.New(rand.NewSource(25))
	base := time.Unix(1609459200, 0).UTC()
	arrival := make([]dataset.IngestRow, n)
	for i := range arrival {
		city := string(rune('A' + i%4))
		arrival[i] = dataset.IngestRow{
			TestID:       i,
			UserID:       rng.Intn(users),
			City:         city,
			ISP:          "ISP-" + city,
			Timestamp:    base.Add(time.Duration(i) * time.Second),
			DownloadMbps: rng.Float64() * 1000,
			UploadMbps:   rng.Float64() * 35,
			LatencyMs:    rng.Float64() * 50,
			UploadTier:   rng.Intn(5) - 1,
			Tier:         rng.Intn(7),
			Confidence:   rng.Float64(),
		}
	}
	p, err := newPipeline(PipelineConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]dataset.IngestRow, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(batch, arrival)
		b.StartTimer()
		if err := p.seal(batch, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// compactSegments seals segs segments of 65,536 rows each (four cities ×
// 5,000 users, every segment with fresh test ids) into a new pipeline's
// directory and returns the pipeline and each segment's image.
func compactSegments(tb testing.TB, segs int) (*Pipeline, [][]byte) {
	tb.Helper()
	const rows, users = 65536, 5000
	rng := rand.New(rand.NewSource(28))
	base := time.Unix(1609459200, 0).UTC()
	p, err := newPipeline(PipelineConfig{Dir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	images := make([][]byte, segs)
	batch := make([]dataset.IngestRow, rows)
	for s := range images {
		for i := range batch {
			city := string(rune('A' + i%4))
			batch[i] = dataset.IngestRow{
				TestID:       s*rows + i,
				UserID:       rng.Intn(users),
				City:         city,
				ISP:          "ISP-" + city,
				Timestamp:    base.Add(time.Duration(s*rows+i) * time.Second),
				DownloadMbps: rng.Float64() * 1000,
				UploadMbps:   rng.Float64() * 35,
				LatencyMs:    rng.Float64() * 50,
				UploadTier:   rng.Intn(5) - 1,
				Tier:         rng.Intn(7),
				Confidence:   rng.Float64(),
			}
		}
		if err := p.seal(batch, s); err != nil {
			tb.Fatal(err)
		}
		if images[s], err = os.ReadFile(p.segmentPath(s)); err != nil {
			tb.Fatal(err)
		}
	}
	return p, images
}

// BenchmarkCompact times CompactWith at opendata.TileZoom over 4 and 16
// sealed segments of compactSegments, reporting ns per compacted row and
// the bytes allocated per compaction. The segments are sealed once; each
// iteration rewrites them into the directory outside the timer, since
// compaction removes them.
func BenchmarkCompact(b *testing.B) {
	for _, segs := range []int{4, 16} {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			p, images := compactSegments(b, segs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for s, img := range images {
					if err := os.WriteFile(p.segmentPath(s), img, 0o644); err != nil {
						b.Fatal(err)
					}
				}
				if err := os.Remove(filepath.Join(p.cfg.Dir, CompactedName)); err != nil && !os.IsNotExist(err) {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := CompactWith(p.cfg.Dir, CompactOptions{ClusterZoom: opendata.TileZoom}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*segs*65536), "ns/row")
		})
	}
}

// BenchmarkServerWarmRefresh measures one full warm refresh sweep on a
// live server: read the sealed per-city sketch fold, clone + merge the
// base tier sketches, refit the BST from the merged sketches, and publish
// the new classifier through the RCU pointer swap. The sweep runs with the
// background loop disabled and every sealed row marked unfolded again per
// iteration, so each iteration pays the whole refit the refresh loop pays
// when a trigger fires.
func BenchmarkServerWarmRefresh(b *testing.B) {
	city, models, specs, fitCfg, rows := refreshFixture(b)
	p, err := NewPipeline(PipelineConfig{Dir: b.TempDir(), BatchRows: 25, MaxBatchAge: -1, Sketches: specs})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	srv := NewServer(p, models, ServerConfig{FitConfig: fitCfg})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := range rows {
		postOne(b, ts.Client(), ts.URL, &rows[i])
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if sk, ok := p.SealedSketchesFor(city); ok && sk.Count() == len(rows) {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("sealed sketches never reached %d rows: %v", len(rows), p.SketchCounts())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.cities[city]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.folded.Store(0) // every sealed row counts as unfolded again
		srv.refreshOnce(true)
	}
	b.StopTimer()
	if gen, _ := srv.Generation(city); gen < uint64(b.N) {
		b.Fatalf("refits published = %d, want >= %d", gen, b.N)
	}
}

// BenchmarkParseSubmission measures the hand-rolled wire decode alone.
func BenchmarkParseSubmission(b *testing.B) {
	rows := testRows(256, 10)
	bodies := make([][]byte, len(rows))
	for i := range rows {
		bodies[i] = AppendSubmission(nil, &rows[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var row = rows[0]
		if err := parseSubmission(bodies[i%len(bodies)], &row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTilesHTTP measures GET /v1/tiles end to end on a server whose
// segments are all sealed and folded. For the base and roll-up queries,
// after the first request the refresh sweep sees no new segments and
// every rolled tile is a result-cache hit, so the hot path's latency
// percentiles are the cache's constant-time claim, measured through HTTP.
// The bbox query is a zoom-16 neighbourhood around one subscriber on the
// pushdown path: every request rescans the segments into the restricted
// index, decoding into the previous scan's buffers.
func BenchmarkTilesHTTP(b *testing.B) {
	cls, rows := loadClassifiers(b)
	ts, _, p := startServer(b, b.TempDir(), PipelineConfig{BatchRows: 128, MaxBatchAge: -1}, cls)
	defer ts.Close()
	client := ts.Client()
	for at := 0; at < len(rows); at += 64 {
		var buf []byte
		for j := at; j < at+64 && j < len(rows); j++ {
			buf = AppendSubmission(buf, &rows[j])
			buf = append(buf, '\n')
		}
		resp, err := client.Post(ts.URL+"/v1/ingest/batch", "application/json", bytes.NewReader(buf))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	if err := p.Close(); err != nil { // seal the tail batch
		b.Fatal(err)
	}
	center := opendata.CityCenter(rows[0].City)
	loc := opendata.UserLocation(center, opendata.DefaultLocSeed, rows[0].UserID)
	for _, q := range []struct{ name, params string }{
		{"query=base", ""},
		{"query=rollup", "?zoom=12&metric=download"},
		{"query=bbox", fmt.Sprintf("?zoom=16&bbox=%g,%g,%g,%g", loc.Lat-0.001, loc.Lon-0.001, loc.Lat+0.001, loc.Lon+0.001)},
		// A whole city at zoom 12 on the pushdown path: every row of the
		// city decodes and folds on each query.
		{"query=city", fmt.Sprintf("?zoom=12&bbox=%g,%g,%g,%g", center.Lat-0.1, center.Lon-0.1, center.Lat+0.1, center.Lon+0.1)},
		// The same city rendering one metric: the scan decodes user id,
		// city and download only.
		{"query=city/metric=download", fmt.Sprintf("?zoom=12&bbox=%g,%g,%g,%g&metric=download", center.Lat-0.1, center.Lon-0.1, center.Lat+0.1, center.Lon+0.1)},
	} {
		b.Run(q.name, func(b *testing.B) {
			if code, body := getTiles(b, client, ts.URL, q.params); code != http.StatusOK || len(body) == 0 {
				b.Fatalf("warmup status %d (%d bytes)", code, len(body))
			}
			lat := make([]float64, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				code, body := getTiles(b, client, ts.URL, q.params)
				lat = append(lat, float64(time.Since(t0).Nanoseconds()))
				if code != http.StatusOK || len(body) == 0 {
					b.Fatalf("status %d", code)
				}
			}
			b.StopTimer()
			reportLatencies(b, lat)
		})
	}
}
