package ingest

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// tileSelection is the pruned projection the tile layer reads from a
// sealed segment: six of the eleven ingest columns, no sketch sections.
// Everything else in the file is skipped by seek (DESIGN.md §13).
var tileSelection = dataset.SnapshotSelection{
	Ingest: dataset.Cols(
		dataset.IngestColUserID, dataset.IngestColCity,
		dataset.IngestColDownload, dataset.IngestColUpload,
		dataset.IngestColLatency, dataset.IngestColTier,
	),
}

// tileServer folds sealed .sxc segments into a tilequery engine and serves
// GET /v1/tiles. Folds are incremental: each request lists the segment
// directory and folds only files it has not seen; a vanished file (the
// batcher never removes segments, so that means Compact ran) resets the
// engine and refolds the directory. Because tile aggregation is
// integer-exact and placement is order-independent, any fold history over
// the same sealed rows — live seal-by-seal, cold-restart refold, or
// post-compaction refold — yields byte-identical responses.
type tileServer struct {
	mu        sync.Mutex
	dir       string
	cfg       tilequery.Config
	eng       *tilequery.Engine
	folded    map[string]bool
	batchRows int
	cities    []string // sorted serving-model cities, for pushdown attribution

	// Cumulative streamed-scan counters across folds, for /statsz: proof
	// the serving path never materializes unrequested columns (and, on
	// zoned segments, how many row groups the folds touched).
	colsDecoded   int64
	colsSkipped   int64
	blocksScanned int64
	refolds       uint64

	// push is the bbox serving path's index, reset and restricted to each
	// query's range; its placement memo persists across queries.
	push *tilequery.Index

	// Predicate-pushdown accounting for the bbox serving path (DESIGN.md
	// §15): per-query totals and the per-city split, attributed by which
	// city's user box the query bbox intersects.
	pushQueries      uint64
	pushSkipHits     uint64 // queries that skipped at least one row group
	pushRowsFolded   int64  // scanned rows inside the query range
	pushRowsFiltered int64  // scanned rows the range restriction dropped
	pushByCity       map[string]*cityPushStats
}

// cityPushStats is one city's pushdown tally.
type cityPushStats struct {
	queries       uint64
	blocksScanned int64
	blocksSkipped int64
}

func newTileServer(dir string, cfg tilequery.Config, cacheTiles, batchRows int, cities []string) *tileServer {
	return &tileServer{
		dir:        dir,
		cfg:        cfg,
		eng:        tilequery.NewEngine(cfg, cacheTiles),
		push:       tilequery.NewIndex(cfg),
		folded:     make(map[string]bool),
		batchRows:  batchRows,
		cities:     cities,
		pushByCity: make(map[string]*cityPushStats),
	}
}

// refresh folds segments sealed since the last call, resetting first if
// compaction rewrote the directory.
func (ts *tileServer) refresh() error {
	entries, err := os.ReadDir(ts.dir)
	if err != nil {
		return err
	}
	present := make(map[string]bool, len(entries))
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, segmentSuffix) {
			present[name] = true
			names = append(names, name)
		}
	}
	for name := range ts.folded {
		if !present[name] {
			ts.eng.Reset()
			ts.folded = make(map[string]bool, len(names))
			ts.refolds++
			break
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if ts.folded[name] {
			continue
		}
		if err := ts.foldSegment(name); err != nil {
			// A streamed fold is provisional until the scan's final
			// verification, so a failure may have folded a partial
			// segment. Reset and refold everything on the next request —
			// cheap (folds are incremental over few segments) and it
			// keeps the engine's state a pure function of whole sealed
			// segments.
			ts.eng.Reset()
			ts.folded = make(map[string]bool)
			ts.refolds++
			return fmt.Errorf("ingest: tiles: fold %s: %w", name, err)
		}
		ts.folded[name] = true
	}
	return nil
}

// foldSegment streams one segment batch-by-batch into the engine
// (DESIGN.md §14): six of the eleven ingest columns decode in bounded
// batches and fold straight into the integer-exact tile accumulators, so
// fold memory is O(batch), not O(segment).
func (ts *tileServer) foldSegment(name string) error {
	src, err := dataset.OpenFileSource(filepath.Join(ts.dir, name))
	if err != nil {
		return err
	}
	defer src.Close()
	sc, err := dataset.NewBlockScanner(src, tileSelection, ts.batchRows)
	if err != nil {
		return err
	}
	err = ts.eng.AddScan(sc)
	ctr := sc.Counters()
	ts.colsDecoded += int64(ctr.ColumnsDecoded)
	ts.colsSkipped += int64(ctr.ColumnsSkipped)
	ts.blocksScanned += int64(ctr.BlocksScanned)
	if err != nil {
		return err
	}
	if ctr.SectionsDecoded == 0 {
		return fmt.Errorf("segment carries no ingest section")
	}
	return nil
}

// tilesPushdown answers one bbox query by streaming the current segment
// set into the pushdown index, reset and restricted to the query's range,
// with the bbox predicate pushed into each scanner (DESIGN.md §15): row
// groups of clustered segments whose quadkey zone ranges cannot intersect
// the bbox are seeked past instead of decoded, and rows of scanned groups
// placed outside the range are dropped before they reach an accumulator.
// Both only remove rows of tiles outside the queried rectangle, so the
// rendered tiles are byte-identical to the engine path's. Unclustered (v2)
// segments carry no zone maps and stream whole. Callers hold ts.mu.
func (ts *tileServer) tilesPushdown(query tilequery.Query) ([]opendata.ContextTile, error) {
	entries, err := os.ReadDir(ts.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); e.Type().IsRegular() && strings.HasSuffix(name, segmentSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	sel := tileSelection
	sel.Predicate = ts.cfg.Pushdown(query.Range)
	ix := ts.push
	if err := ix.Reset(query.Range); err != nil {
		return nil, err
	}
	var scanned, skipped int64
	for _, name := range names {
		ctr, err := ts.scanSegmentInto(ix, name, sel)
		scanned += int64(ctr.BlocksScanned)
		skipped += int64(ctr.BlocksSkipped)
		if err != nil {
			return nil, fmt.Errorf("ingest: tiles: pushdown scan %s: %w", name, err)
		}
	}
	tiles, err := ix.Tiles(query)
	if err != nil {
		return nil, err
	}
	ts.pushQueries++
	if skipped > 0 {
		ts.pushSkipHits++
	}
	ts.pushRowsFolded += int64(ix.RowCount())
	ts.pushRowsFiltered += int64(ix.FilteredRows())
	city := ts.cityFor(query.Range)
	st := ts.pushByCity[city]
	if st == nil {
		st = &cityPushStats{}
		ts.pushByCity[city] = st
	}
	st.queries++
	st.blocksScanned += scanned
	st.blocksSkipped += skipped
	return tiles, nil
}

// scanSegmentInto streams one segment into ix under sel and returns the
// scan's counters whether or not it failed.
func (ts *tileServer) scanSegmentInto(ix *tilequery.Index, name string, sel dataset.SnapshotSelection) (dataset.DecodeCounters, error) {
	src, err := dataset.OpenFileSource(filepath.Join(ts.dir, name))
	if err != nil {
		return dataset.DecodeCounters{}, err
	}
	defer src.Close()
	sc, err := dataset.NewBlockScanner(src, sel, ts.batchRows)
	if err != nil {
		return dataset.DecodeCounters{}, err
	}
	_, err = ix.AddScan(sc)
	return sc.Counters(), err
}

// cityFor attributes a bbox query to the first configured city whose
// ±0.1° user box intersects the queried tile rectangle, or "other" when
// the bbox covers no configured city.
func (ts *tileServer) cityFor(rng *opendata.TileRange) string {
	if rng != nil {
		for _, city := range ts.cities {
			c := opendata.CityCenter(city)
			box, err := opendata.TileRangeForBBox(c.Lat-0.1, c.Lon-0.1, c.Lat+0.1, c.Lon+0.1, rng.Zoom)
			if err != nil {
				continue
			}
			if box.MinX <= rng.MaxX && rng.MinX <= box.MaxX &&
				box.MinY <= rng.MaxY && rng.MinY <= box.MaxY {
				return city
			}
		}
	}
	return "other"
}

// tileStats is a point-in-time tile-layer snapshot for /statsz.
type tileStats struct {
	tilequery.EngineStats
	Segments      int
	Refolds       uint64
	ColsDecoded   int64
	ColsSkipped   int64
	BlocksScanned int64

	PushQueries      uint64
	PushSkipHits     uint64
	PushRowsFolded   int64
	PushRowsFiltered int64
	PushByCity       map[string]cityPushStats
}

func (ts *tileServer) stats() tileStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	byCity := make(map[string]cityPushStats, len(ts.pushByCity))
	for city, st := range ts.pushByCity {
		byCity[city] = *st
	}
	return tileStats{
		EngineStats:      ts.eng.Stats(),
		Segments:         len(ts.folded),
		Refolds:          ts.refolds,
		ColsDecoded:      ts.colsDecoded,
		ColsSkipped:      ts.colsSkipped,
		BlocksScanned:    ts.blocksScanned,
		PushQueries:      ts.pushQueries,
		PushSkipHits:     ts.pushSkipHits,
		PushRowsFolded:   ts.pushRowsFolded,
		PushRowsFiltered: ts.pushRowsFiltered,
		PushByCity:       byCity,
	}
}

// handleTiles serves GET /v1/tiles?zoom=&bbox=minLat,minLon,maxLat,maxLon
// &metric=&format=&push=. zoom defaults to the base aggregation zoom; bbox
// restricts output to the covered tile rectangle (and routes the query
// through the predicate-pushdown scan path — push=0 opts out); metric
// selects a single-value projection (see tilequery.Metrics); format is
// json (default) or csv.
func (s *Server) handleTiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ts := s.tiles
	q := r.URL.Query()

	zoom := ts.eng.Zoom()
	if v := q.Get("zoom"); v != "" {
		z, err := strconv.Atoi(v)
		if err != nil || z < 1 || z > ts.eng.Zoom() {
			http.Error(w, fmt.Sprintf("ingest: zoom must be an integer in [1, %d]", ts.eng.Zoom()), http.StatusBadRequest)
			return
		}
		zoom = z
	}
	query := tilequery.Query{Zoom: zoom}
	if v := q.Get("bbox"); v != "" {
		parts := strings.Split(v, ",")
		if len(parts) != 4 {
			http.Error(w, "ingest: bbox wants minLat,minLon,maxLat,maxLon", http.StatusBadRequest)
			return
		}
		var f [4]float64
		for i, p := range parts {
			x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				http.Error(w, "ingest: bad bbox coordinate "+p, http.StatusBadRequest)
				return
			}
			f[i] = x
		}
		rng, err := opendata.TileRangeForBBox(f[0], f[1], f[2], f[3], zoom)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		query.Range = &rng
	}

	// A bbox query takes the predicate-pushdown scan path by default
	// (?push=0 forces the engine path); both render identical bytes — the
	// identity the zonemap-verify matrix gates.
	push := query.Range != nil && q.Get("push") != "0"
	ts.mu.Lock()
	var err error
	var tiles []opendata.ContextTile
	if push {
		tiles, err = ts.tilesPushdown(query)
	} else {
		if err = ts.refresh(); err == nil {
			tiles, err = ts.eng.Tiles(query)
		}
	}
	ts.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	if q.Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		if err := tilequery.WriteTilesCSV(w, tiles); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	bp := s.bufPool.Get().(*[]byte)
	out, err := tilequery.AppendTilesJSON((*bp)[:0], zoom, tiles, q.Get("metric"))
	if err != nil {
		s.bufPool.Put(bp)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out = append(out, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
	*bp = out[:0]
	s.bufPool.Put(bp)
}

// appendTileStats renders the /statsz tile_cache block.
func appendTileStats(out []byte, st tileStats) []byte {
	out = append(out, `"tile_cache":{"rows":`...)
	out = strconv.AppendInt(out, int64(st.Rows), 10)
	out = append(out, `,"tiles":`...)
	out = strconv.AppendInt(out, int64(st.Tiles), 10)
	out = append(out, `,"segments":`...)
	out = strconv.AppendInt(out, int64(st.Segments), 10)
	out = append(out, `,"refolds":`...)
	out = strconv.AppendUint(out, st.Refolds, 10)
	out = append(out, `,"hits":`...)
	out = strconv.AppendUint(out, st.CacheHits, 10)
	out = append(out, `,"misses":`...)
	out = strconv.AppendUint(out, st.CacheMisses, 10)
	out = append(out, `,"invalidations":`...)
	out = strconv.AppendUint(out, st.Invalidations, 10)
	out = append(out, `,"entries":`...)
	out = strconv.AppendInt(out, int64(st.CacheLen), 10)
	out = append(out, `,"cols_decoded":`...)
	out = strconv.AppendInt(out, st.ColsDecoded, 10)
	out = append(out, `,"cols_skipped":`...)
	out = strconv.AppendInt(out, st.ColsSkipped, 10)
	out = append(out, `,"blocks_scanned":`...)
	out = strconv.AppendInt(out, st.BlocksScanned, 10)
	out = append(out, '}')
	out = append(out, `,"pushdown":{"queries":`...)
	out = strconv.AppendUint(out, st.PushQueries, 10)
	out = append(out, `,"skip_hits":`...)
	out = strconv.AppendUint(out, st.PushSkipHits, 10)
	out = append(out, `,"hit_rate":`...)
	rate := 0.0
	if st.PushQueries > 0 {
		rate = float64(st.PushSkipHits) / float64(st.PushQueries)
	}
	out = strconv.AppendFloat(out, rate, 'f', 3, 64)
	out = append(out, `,"rows_folded":`...)
	out = strconv.AppendInt(out, st.PushRowsFolded, 10)
	out = append(out, `,"rows_filtered":`...)
	out = strconv.AppendInt(out, st.PushRowsFiltered, 10)
	out = append(out, `,"cities":{`...)
	cities := make([]string, 0, len(st.PushByCity))
	for city := range st.PushByCity {
		cities = append(cities, city)
	}
	sort.Strings(cities)
	for i, city := range cities {
		cs := st.PushByCity[city]
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendQuote(out, city)
		out = append(out, `:{"queries":`...)
		out = strconv.AppendUint(out, cs.queries, 10)
		out = append(out, `,"blocks_scanned":`...)
		out = strconv.AppendInt(out, cs.blocksScanned, 10)
		out = append(out, `,"blocks_skipped":`...)
		out = strconv.AppendInt(out, cs.blocksSkipped, 10)
		out = append(out, '}')
	}
	out = append(out, '}', '}')
	return out
}
