package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/ingest"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// The tiles workload (read path): a closed loop of GET /v1/tiles queries
// against a store shaped like a live server's between compactions — one
// compacted, quadkey-clustered file of about a million rows plus a couple
// of freshly sealed unclustered segments beside it. Set-up builds the store
// only through the public ingest APIs (Submit, Close, CompactWith).

// tilesClassWeights sets the query mix so that neither reported percentile
// sits on a boundary between two classes' latency ranges. The engine-path
// classes (rollup, nopush: cache hits, under a millisecond) are the fastest
// quarter, nbhd the middle half and city (a quarter of a million rows
// decoded per query) the slowest quarter: the p50 falls mid-nbhd and the
// tail percentile inside city's range.
var tilesClassWeights = map[string]int{"rollup": 1, "nopush": 1, "nbhd": 4, "city": 2}

// tilesTail is the tail percentile of per-query latency: the 80th
// percentile of the city class, which is a quarter of the mix.
const tilesTail = 0.95

// tileSelection is the column projection the server's tile layer reads:
// six of the eleven ingest columns, no sketch sections.
var tileSelection = dataset.SnapshotSelection{
	Ingest: dataset.Cols(
		dataset.IngestColUserID, dataset.IngestColCity,
		dataset.IngestColDownload, dataset.IngestColUpload,
		dataset.IngestColLatency, dataset.IngestColTier,
	),
}

// tileQuery is one distinct query with its reference response.
type tileQuery struct {
	class  string
	path   string // request path and query string
	q      tilequery.Query
	metric string
	push   bool // the server takes the pushdown scan path
	ref    []byte
}

type tilesFixture struct {
	g          *generator
	dir        string
	pipe       *ingest.Pipeline // live pipeline that sealed the fresh segments
	rows       int
	finish     time.Duration // Pipeline.Close + CompactWith of the clustered store
	storeBytes int64         // size of the clustered store
}

func (fx *tilesFixture) discard() {
	fx.pipe.Close()
	os.RemoveAll(fx.dir)
}

// buildTileStore is the tiles set-up: fit the city models, ingest
// storeRows classified rows, compact them clustered, then seal freshRows
// more into freshSegs unclustered segments through a second, live pipeline.
func buildTileStore(e *env, dir string) (*tilesFixture, error) {
	g, err := newGenerator(e.seed, e.size.users, nil)
	if err != nil {
		return nil, err
	}
	fx := &tilesFixture{g: g, dir: dir, rows: e.size.storeRows + e.size.freshRows}
	submit := func(p *ingest.Pipeline, lo, hi int) error {
		for j := lo; j < hi; j++ {
			if err := p.Submit(g.classified(j)); err != nil {
				return err
			}
		}
		return nil
	}
	p, err := ingest.NewPipeline(ingest.PipelineConfig{Dir: dir, BatchRows: e.size.segRows})
	if err != nil {
		return nil, err
	}
	if err := submit(p, 0, e.size.storeRows); err != nil {
		p.Close()
		return nil, err
	}
	f0 := time.Now()
	if err := p.Close(); err != nil {
		return nil, err
	}
	store, err := ingest.CompactWith(dir, ingest.CompactOptions{ClusterZoom: e.size.clusterZ})
	if err != nil {
		return nil, err
	}
	fx.finish = time.Since(f0)
	fi, err := os.Stat(store)
	if err != nil {
		return nil, err
	}
	fx.storeBytes = fi.Size()
	fx.pipe, err = ingest.NewPipeline(ingest.PipelineConfig{
		Dir: dir, BatchRows: e.size.freshRows / e.size.freshSegs, MaxBatchAge: -1,
	})
	if err != nil {
		return nil, err
	}
	if err := submit(fx.pipe, e.size.storeRows, fx.rows); err != nil {
		fx.pipe.Close()
		return nil, err
	}
	for {
		if _, sealed, _ := fx.pipe.Stats(); int(sealed) == e.size.freshRows {
			return fx, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// tileQueries draws perClass distinct queries per class from the seed and
// renders each one's reference response from an in-memory tilequery index
// folded over the same rows the store holds, never read back from it. The
// design is balanced: each class visits the cities (and rollup the zooms)
// in turn, so the seed moves where a query lands, not how much it costs on
// average.
func tileQueries(e *env, fx *tilesFixture) ([]tileQuery, error) {
	rng := rand.New(rand.NewSource(e.seed))
	metrics := append([]string{""}, tilequery.Metrics...)
	var qs []tileQuery
	for _, class := range tileClasses {
		for k := 0; k < e.size.perClass; k++ {
			city := fx.g.cities[k%len(fx.g.cities)]
			c := opendata.CityCenter(city)
			tq := tileQuery{class: class, metric: metrics[rng.Intn(len(metrics))]}
			v := url.Values{}
			var box [4]float64
			switch class {
			case "nbhd": // a few zoom-16 tiles around one subscriber
				loc := opendata.UserLocation(c, opendata.DefaultLocSeed, rng.Intn(e.size.users))
				box = [4]float64{loc.Lat - 0.004, loc.Lon - 0.004, loc.Lat + 0.004, loc.Lon + 0.004}
				tq.q.Zoom = 16
			case "city": // a whole city at zoom 12
				box = [4]float64{c.Lat - 0.1, c.Lon - 0.1, c.Lat + 0.1, c.Lon + 0.1}
				tq.q.Zoom = 12
			case "rollup": // every tile, no bbox: the engine path
				tq.q.Zoom = []int{8, 10, 12, 13}[k%4]
			case "nopush": // a district bbox at zoom 14, engine path
				dLat, dLon := (rng.Float64()-0.5)*0.12, (rng.Float64()-0.5)*0.12
				box = [4]float64{c.Lat + dLat - 0.03, c.Lon + dLon - 0.03, c.Lat + dLat + 0.03, c.Lon + dLon + 0.03}
				tq.q.Zoom = 14
				v.Set("push", "0")
			}
			v.Set("zoom", strconv.Itoa(tq.q.Zoom))
			if class != "rollup" {
				// The server parses the bbox from its printed form, so the
				// reference answers the range of the printed coordinates.
				var parts []string
				for i := range box {
					parts = append(parts, strconv.FormatFloat(box[i], 'f', 5, 64))
					box[i], _ = strconv.ParseFloat(parts[i], 64)
				}
				rng, err := opendata.TileRangeForBBox(box[0], box[1], box[2], box[3], tq.q.Zoom)
				if err != nil {
					return nil, err
				}
				tq.q.Range = &rng
				v.Set("bbox", strings.Join(parts, ","))
				tq.push = class != "nopush"
			}
			if tq.metric != "" {
				v.Set("metric", tq.metric)
			}
			tq.path = "/v1/tiles?" + v.Encode()
			qs = append(qs, tq)
		}
	}

	ix := tilequery.NewIndex(tilequery.Config{})
	const chunk = 65536
	for lo := 0; lo < fx.rows; lo += chunk {
		var rows tilequery.Rows
		for j := lo; j < min(lo+chunk, fx.rows); j++ {
			r := fx.g.classified(j)
			rows.UserID = append(rows.UserID, r.UserID)
			rows.City = append(rows.City, r.City)
			rows.Download = append(rows.Download, r.DownloadMbps)
			rows.Upload = append(rows.Upload, r.UploadMbps)
			rows.Latency = append(rows.Latency, r.LatencyMs)
			rows.Tier = append(rows.Tier, r.Tier)
		}
		if _, err := ix.AddRows(&rows); err != nil {
			return nil, err
		}
	}
	for i := range qs {
		q := &qs[i]
		tiles, err := ix.Tiles(q.q)
		if err != nil {
			return nil, err
		}
		out, err := tilequery.AppendTilesJSON(nil, q.q.Zoom, tiles, q.metric)
		if err != nil {
			return nil, err
		}
		q.ref = append(out, '\n')
	}
	return qs, nil
}

// querySequence is the seeded query order: n indexes into qs. It deals a
// deck of one card per class weight, shuffled anew each deal, so every run
// of len(deck) queries has the exact class mix of tilesClassWeights; each
// class's distinct queries take their turns in an order shuffled per
// round, so each is asked equally often.
func querySequence(seed int64, qs []tileQuery, n int) []int {
	byClass := map[string][]int{}
	for i, q := range qs {
		byClass[q.class] = append(byClass[q.class], i)
	}
	var deck []string
	for _, c := range tileClasses {
		for k := 0; k < tilesClassWeights[c]; k++ {
			deck = append(deck, c)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7f4a7c15))
	turn := map[string]int{}
	seq := make([]int, 0, n)
	for len(seq) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, c := range deck {
			idx := byClass[c]
			if turn[c]%len(idx) == 0 {
				rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			}
			seq = append(seq, idx[turn[c]%len(idx)])
			turn[c]++
		}
	}
	return seq[:n]
}

// tilesPhase is one closed-loop query phase's measurements.
type tilesPhase struct {
	lat      latencies
	byClass  map[string]latencies
	wall     time.Duration
	queries  int
	failed   int
	hits     uint64
	lookups  uint64
	rejected uint64
	gc       gcWindow
	window   [2]int64
}

// queryLoop replays the seeded query sequence from its start until the
// budget is spent, checking every response against its reference. It also
// checks the server's own pushdown counters: every bbox query it sent with
// pushdown must have taken the pushdown scan, and every nbhd query must
// have skipped row groups there. A LocSeed mismatch between compaction and
// serving, or an unclustered store, would silently turn the skips off
// without changing a response byte.
func queryLoop(c *client, qs []tileQuery, seq []int, budget float64, t *tracer, r *result) (tilesPhase, error) {
	ph := tilesPhase{byClass: map[string]latencies{}}
	st0, err := c.stats()
	if err != nil {
		return ph, err
	}
	runtime.GC()
	gc := startGC()
	ph.window[0] = t.now()
	pushed, nbhd := 0, 0
	start := time.Now()
	for i := 0; ph.queries == 0 || time.Since(start).Seconds() < budget; i++ {
		q := &qs[seq[i%len(seq)]]
		status, resp, lat, err := c.do(http.MethodGet, q.path, nil, q.class)
		ph.queries++
		if err != nil || status != http.StatusOK {
			ph.failed++
			r.fail("tiles: %s: status %d, %v", q.path, status, err)
			continue
		}
		if q.push {
			pushed++
		}
		if q.class == "nbhd" {
			nbhd++
		}
		if !bytes.Equal(resp, q.ref) {
			ph.failed++
			r.fail("tiles: %s: response differs from the in-memory reference", q.path)
			continue
		}
		ph.lat = append(ph.lat, ms(lat))
		ph.byClass[q.class] = append(ph.byClass[q.class], ms(lat))
	}
	ph.wall = time.Since(start)
	ph.window[1] = t.now()
	gc.addTo(&ph.gc)
	st1, err := c.stats()
	if err != nil {
		return ph, err
	}
	ph.hits = st1.TileCache.Hits - st0.TileCache.Hits
	ph.lookups = ph.hits + st1.TileCache.Misses - st0.TileCache.Misses
	ph.rejected = st1.Rejected
	if n := st1.Pushdown.Queries - st0.Pushdown.Queries; n != uint64(pushed) {
		r.fail("tiles: server ran %d pushdown scans for %d bbox queries sent with pushdown", n, pushed)
	}
	if n := st1.Pushdown.SkipHits - st0.Pushdown.SkipHits; n < uint64(nbhd) {
		r.fail("tiles: %d of %d nbhd queries skipped row groups on the server: pushdown is off", n, nbhd)
	}
	return ph, nil
}

func runTiles(e *env) (*result, error) {
	r := newResult()
	var finishes []float64
	fx, setup, err := timeSetup(e.size.setupRepeats, func(i int) (*tilesFixture, error) {
		fx, err := buildTileStore(e, e.path(fmt.Sprintf("tiles-%d", i)))
		if err == nil {
			finishes = append(finishes, fx.finish.Seconds())
		}
		return fx, err
	}, (*tilesFixture).discard)
	if err != nil {
		return nil, err
	}
	defer fx.discard()
	r.set("setup_s", setup, fmt.Sprintf("median of %d set-ups: four city fits, %d rows ingested and compacted clustered, %d sealed beside them in %d segments",
		e.size.setupRepeats, e.size.storeRows, e.size.freshRows, e.size.freshSegs))

	qs, err := tileQueries(e, fx)
	if err != nil {
		return nil, err
	}

	srv := ingest.NewServer(fx.pipe, ingest.StaticModels(fx.g.classifiers), ingest.ServerConfig{})
	defer srv.Close()
	ls, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer ls.close()
	c := newClient(ls.base, nil)
	defer c.close()

	// Warm-up, untimed: every distinct query once. The first engine-path
	// query folds every segment into the serving index.
	for i := range qs {
		if status, resp, _, err := c.do(http.MethodGet, qs[i].path, nil, ""); err != nil || status != http.StatusOK || !bytes.Equal(resp, qs[i].ref) {
			r.fail("tiles: warm-up %s: status %d, %v, reference match %v", qs[i].path, status, err, bytes.Equal(resp, qs[i].ref))
		}
	}
	seq := querySequence(e.seed, qs, 1<<16)

	rss := startRSS()
	base, err := queryLoop(c, qs, seq, e.phaseSeconds(), nil, r)
	if err != nil {
		return nil, err
	}
	peak := rss.peakMB()
	r.Attempted, r.Failed = base.queries, base.failed

	if !e.trace {
		r.set("throughput_per_s", float64(base.queries)/base.wall.Seconds(), fmt.Sprintf("queries answered in %.2f s", base.wall.Seconds()))
		base.lat.summarize(r, tilesTail)
		var parts []string
		for _, cl := range tileClasses {
			l := base.byClass[cl]
			parts = append(parts, fmt.Sprintf("%s %.3g ms of %d", cl, median(l), len(l)))
		}
		r.notes["latency_p50_ms"] += "; per class p50: " + strings.Join(parts, ", ")
		// The query loop writes nothing: the workload's finish and store
		// are the set-up's, the compaction a live server ran before the
		// fresh segments sealed.
		r.set("finish_s", median(finishes), fmt.Sprintf("median of %d set-ups: Pipeline.Close + CompactWith of %d rows", len(finishes), e.size.storeRows))
		r.set("peak_rss_mb", peak, "peak resident set while serving the query loop")
		r.set("store_bytes_per_row", float64(fx.storeBytes)/float64(e.size.storeRows), "clustered store compacted in set-up")
		return r, nil
	}

	t := newTracer()
	tls, err := serve(t.wrap(srv.Handler()))
	if err != nil {
		return nil, err
	}
	tc := newClient(tls.base, t)
	traced, err := queryLoop(tc, qs, seq, e.phaseSeconds(), t, r)
	tc.close()
	tls.close()
	if err != nil {
		return nil, err
	}
	r.Attempted += traced.queries
	r.Failed += traced.failed
	if err := replayMetrics(r, fx.dir, qs, t); err != nil {
		return nil, err
	}

	ss := indexSpans(t.snapshot())
	rt := ss.durations("http.roundtrip", "")
	r.set("http.roundtrip_ms", median(rt), fmt.Sprintf("p50 of %d client spans", len(rt)))
	r.set("ingest.handler_ms", median(ss.durations("ingest.handler", "/v1/tiles")), "p50 of handler spans")
	r.set("http.transport_ms", median(ss.selfTimes("http.roundtrip")), "p50 of round trip minus handler")
	_, sealedRows, segments := fx.pipe.Stats()
	r.set("ingest.segments_sealed", float64(segments), "fresh segments sealed by the live pipeline")
	r.set("ingest.rows_sealed", float64(sealedRows), "rows in the fresh segments")
	r.set("ingest.rejected", float64(traced.rejected), "from /statsz")
	r.set("runtime.gc_cycles", float64(base.gc.cycles), "untraced phase")
	r.set("runtime.gc_pause_ms", float64(base.gc.pauseNs)/1e6, "untraced phase, total stop-the-world")
	r.set("tilequery.cache_hit_ratio", float64(traced.hits)/float64(max(traced.lookups, 1)),
		fmt.Sprintf("%d hits of %d tile lookups (traced phase)", traced.hits, traced.lookups))
	perQuery := func(p tilesPhase) float64 { return p.wall.Seconds() / float64(p.queries) }
	r.set("trace.overhead_ratio", perQuery(traced)/perQuery(base)-1, "seconds per query, traced over untraced")
	coverage(r, ss, [][2]int64{traced.window})

	return r, e.writeTrace(t)
}

// replayMetrics replays each query class once directly through the
// dataset and tilequery public functions, over the store the server just
// served, and sets the per-class layer metrics.
func replayMetrics(r *result, dir string, qs []tileQuery, t *tracer) error {
	for _, class := range tileClasses {
		rp := replayClass(dir, qs, class, t)
		if rp.err != nil {
			return rp.err
		}
		if rp.mismatches > 0 {
			r.fail("tiles: direct replay of %s renders %d responses unlike the reference", class, rp.mismatches)
		}
		n := float64(rp.queries)
		r.set("dataset.scan_ms."+class, median(rp.scanMs), fmt.Sprintf("p50 of %d queries", rp.queries))
		r.set("tilequery.fold_ms."+class, median(rp.foldMs), "AddScan minus the drained scan, p50")
		r.set("tilequery.tiles_ms."+class, median(rp.tilesMs), "Index.Tiles, p50")
		r.set("tilequery.render_ms."+class, median(rp.renderMs), "AppendTilesJSON, p50")
		r.set("dataset.blocks_scanned."+class, float64(rp.blocksScanned)/n, "per query")
		r.set("dataset.blocks_skipped."+class, float64(rp.blocksSkipped)/n, "per query")
		r.set("dataset.rows_skipped."+class, float64(rp.rowsSkipped)/n, "per query")
		r.set("dataset.cols_decoded."+class, float64(rp.colsDecoded)/n, "per query")
		groups := rp.blocksScanned + rp.blocksSkipped
		r.set("dataset.zone_skip_ratio."+class, float64(rp.blocksSkipped)/float64(max(groups, 1)),
			fmt.Sprintf("%d of %d zoned row groups skipped over %d queries", rp.blocksSkipped, groups, rp.queries))
	}
	return nil
}

// replay is the direct replay of one query class through the dataset and
// tilequery public functions, outside the server.
type replay struct {
	queries                      int
	scanMs, foldMs, tilesMs      []float64
	renderMs                     []float64
	blocksScanned, blocksSkipped int
	colsDecoded                  int
	rowsSkipped                  int64
	mismatches                   int
	err                          error
}

// replayClass replays every query of class: drain the scanners over the
// store's segments (with the class's pushdown predicate, if it takes that
// path), fold them into a fresh index, roll up and render.
func replayClass(dir string, qs []tileQuery, class string, t *tracer) replay {
	var rp replay
	names, err := segmentFiles(dir)
	if err != nil {
		rp.err = err
		return rp
	}
	cfg := tilequery.Config{}
	for i := range qs {
		q := &qs[i]
		if q.class != class {
			continue
		}
		rp.queries++
		sel := tileSelection
		if q.push {
			sel.Predicate = cfg.Pushdown(q.q.Range)
		}
		sp := t.begin("dataset.scan", class, 0, 0)
		s0 := time.Now()
		for _, name := range names {
			ctr, err := drain(filepath.Join(dir, name), sel, nil)
			if err != nil {
				rp.err = err
				return rp
			}
			rp.blocksScanned += ctr.BlocksScanned
			rp.blocksSkipped += ctr.BlocksSkipped
			rp.rowsSkipped += ctr.RowsSkipped
			rp.colsDecoded += ctr.ColumnsDecoded
		}
		scan := time.Since(s0)
		sp.end()
		ix := tilequery.NewIndex(cfg)
		sp = t.begin("tilequery.addscan", class, 0, 0)
		f0 := time.Now()
		for _, name := range names {
			if _, err := drain(filepath.Join(dir, name), sel, ix); err != nil {
				rp.err = err
				return rp
			}
		}
		fold := time.Since(f0)
		sp.end()
		sp = t.begin("tilequery.tiles", class, 0, 0)
		t0 := time.Now()
		tiles, err := ix.Tiles(q.q)
		tilesD := time.Since(t0)
		sp.end()
		if err != nil {
			rp.err = err
			return rp
		}
		sp = t.begin("tilequery.render", class, 0, 0)
		r0 := time.Now()
		out, err := tilequery.AppendTilesJSON(nil, q.q.Zoom, tiles, q.metric)
		renderD := time.Since(r0)
		sp.end()
		if err != nil {
			rp.err = err
			return rp
		}
		if !bytes.Equal(append(out, '\n'), q.ref) {
			rp.mismatches++
		}
		rp.scanMs = append(rp.scanMs, ms(scan))
		rp.foldMs = append(rp.foldMs, ms(fold-scan))
		rp.tilesMs = append(rp.tilesMs, ms(tilesD))
		rp.renderMs = append(rp.renderMs, ms(renderD))
	}
	return rp
}

// drain scans one segment file under sel, folding every batch into ix
// when ix is non-nil and discarding it otherwise.
func drain(path string, sel dataset.SnapshotSelection, ix *tilequery.Index) (dataset.DecodeCounters, error) {
	src, err := dataset.OpenFileSource(path)
	if err != nil {
		return dataset.DecodeCounters{}, err
	}
	defer src.Close()
	sc, err := dataset.NewBlockScanner(src, sel, 0)
	if err != nil {
		return dataset.DecodeCounters{}, err
	}
	if ix != nil {
		_, err = ix.AddScan(sc)
		return sc.Counters(), err
	}
	for sc.Scan() {
	}
	return sc.Counters(), sc.Err()
}

// segmentFiles lists the .sxc files of a segment directory in name order.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".sxc") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
