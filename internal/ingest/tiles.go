package ingest

// The tile layer of the ingest server (DESIGN.md §13–§15): GET /v1/tiles
// answered from the sealed .sxc segments, either by the cached tile engine
// that folds each new segment once, or, for a bbox query, by a pushdown
// scan of every segment per query that decodes only the columns the
// response renders (pushdownSelection). Both scan a segment through one
// helper, scanSegment, which opens the file for the one scan and reuses
// the segment's parsed block directory while the file's size and trailer
// checksum match the cached parse, and decodes into the read windows and
// batch buffers of the previous clean scan, so a query pays for the row
// groups it decodes, not for re-reading every block header or allocating
// fresh buffers per segment.

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// tileSelection is the pruned projection the tile layer reads from a
// sealed segment: six of the eleven ingest columns, no sketch sections.
// Everything else in the file is skipped by seek (DESIGN.md §13). The
// engine folds it whole, since its cache serves every metric; a pushdown
// query reads it only for a full-schema response (pushdownSelection).
var tileSelection = dataset.SnapshotSelection{
	Ingest: dataset.Cols(
		dataset.IngestColUserID, dataset.IngestColCity,
		dataset.IngestColDownload, dataset.IngestColUpload,
		dataset.IngestColLatency, dataset.IngestColTier,
	),
}

// pushdownSelection is the projection a pushdown query for metric reads
// (DESIGN.md §15): user id and city, which place every row, plus the one
// column a download, upload or latency value averages; a tests or devices
// value needs no other column. Any other metric, "" (the full schema, as
// every CSV response renders) included, reads all of tileSelection. The
// columns left out fold as zero into the query's own index, whose sums
// nothing else reads.
func pushdownSelection(metric string) dataset.SnapshotSelection {
	cols := dataset.Cols(dataset.IngestColUserID, dataset.IngestColCity)
	switch metric {
	case "download":
		cols |= dataset.Cols(dataset.IngestColDownload)
	case "upload":
		cols |= dataset.Cols(dataset.IngestColUpload)
	case "latency":
		cols |= dataset.Cols(dataset.IngestColLatency)
	case "tests", "devices":
	default:
		return tileSelection
	}
	return dataset.SnapshotSelection{Ingest: cols}
}

// tileServer folds sealed .sxc segments into a tilequery engine and serves
// GET /v1/tiles. Folds are incremental: each request lists the segment
// directory and folds only files it has not seen; a vanished file (the
// batcher never removes segments, so that means CompactWith ran) resets the
// engine and refolds the directory. Because tile aggregation is
// integer-exact and placement is order-independent, any fold history over
// the same sealed rows — live seal-by-seal, cold-restart refold, or
// post-compaction refold — yields byte-identical responses.
type tileServer struct {
	// mu serializes every use of the server's state, eng's included: the
	// engine does no locking of its own.
	mu     sync.Mutex
	dir    string
	eng    *tilequery.Engine
	folded map[string]bool

	// dirs caches each listed segment's parsed block directory, keyed by
	// name and checked against the opened file's size and trailer before
	// every reuse; dirParses counts the parses it did not save.
	dirs      map[string]segmentDir
	dirParses uint64

	// spare is the last scanner that ran to a clean end; the next scan
	// takes over its read windows and batch buffers (BlockScanner.Reuse).
	spare *dataset.BlockScanner

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
	// §15), totals over every pushdown query.
	pushQueries       uint64
	pushSkipHits      uint64 // queries that skipped at least one row group
	pushRowsFolded    int64  // scanned rows inside the query range
	pushRowsFiltered  int64  // scanned rows the range restriction dropped
	pushBlocksScanned int64  // row groups the pushdown scans decoded
	pushBlocksSkipped int64  // row groups their zone maps skipped
	pushColsDecoded   int64  // column blocks the pushdown scans decoded
}

// segmentDir is one directory-cache entry: a segment's parsed directory
// and the trailer checksum of the image it was parsed from.
type segmentDir struct {
	dir     *dataset.Directory
	trailer uint64
}

// newTileServer serves the segments of dir as tiles at base zoom
// opendata.TileZoom, the zoom every sealed segment is zoned at, through a
// result cache of cacheTiles tiles (0 = the tilequery default).
func newTileServer(dir string, cacheTiles int) *tileServer {
	return &tileServer{
		dir:    dir,
		eng:    tilequery.NewEngine(tilequery.Config{}, cacheTiles),
		push:   tilequery.NewIndex(tilequery.Config{}),
		folded: make(map[string]bool),
		dirs:   make(map[string]segmentDir),
	}
}

// refresh folds segments sealed since the last call, resetting first if
// compaction rewrote the directory. Callers hold ts.mu.
func (ts *tileServer) refresh() error {
	names, present, err := ts.listing()
	if err != nil {
		return err
	}
	for name := range ts.folded {
		if !present[name] {
			ts.eng.Reset()
			ts.folded = make(map[string]bool, len(names))
			ts.refolds++
			break
		}
	}
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
	ctr, err := ts.scanSegment(name, tileSelection, ts.eng.AddScan)
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

// listing lists the segment directory and drops the cached block
// directories of names no longer in it. Callers hold ts.mu.
func (ts *tileServer) listing() ([]string, map[string]bool, error) {
	names, err := listSegments(ts.dir)
	if err != nil {
		return nil, nil, err
	}
	present := make(map[string]bool, len(names))
	for _, name := range names {
		present[name] = true
	}
	for name := range ts.dirs {
		if !present[name] {
			delete(ts.dirs, name)
		}
	}
	return names, present, nil
}

// scanSegment opens one segment, makes a scanner of it under sel from the
// cached block directory, runs fold over the scanner and closes the file.
// The cached directory is reused only while the file's size and trailer
// checksum match the image it was parsed from; otherwise the file is
// parsed again. Payload blocks are checksummed by every scan either way,
// so a changed payload fails the scan rather than folding stale bytes.
// The scanner decodes into the buffers of the last scan that ended
// cleanly; a failed scan's buffers are dropped, not recycled. The scan's
// counters are returned whether or not it failed. Callers hold ts.mu.
func (ts *tileServer) scanSegment(name string, sel dataset.SnapshotSelection, fold func(*dataset.BlockScanner) error) (dataset.DecodeCounters, error) {
	src, err := dataset.OpenFileSource(filepath.Join(ts.dir, name))
	if err != nil {
		return dataset.DecodeCounters{}, err
	}
	defer src.Close()
	trailer, err := dataset.SnapshotTrailer(src)
	if err != nil {
		return dataset.DecodeCounters{}, err
	}
	e, ok := ts.dirs[name]
	if !ok || e.trailer != trailer || e.dir.Size() != src.Size() {
		delete(ts.dirs, name)
		ts.dirParses++
		d, err := dataset.ParseDirectory(src)
		if err != nil {
			return dataset.DecodeCounters{}, err
		}
		e = segmentDir{dir: d, trailer: trailer}
		ts.dirs[name] = e
	}
	sc, err := e.dir.Scanner(src, sel, 0)
	if err != nil {
		return dataset.DecodeCounters{}, err
	}
	sc.Reuse(ts.spare)
	ts.spare = nil
	if err = fold(sc); err == nil {
		ts.spare = sc
	}
	return sc.Counters(), err
}

// tilesPushdown answers one bbox query by streaming the current segment
// set into the pushdown index, reset and restricted to the query's range,
// with the bbox predicate pushed into each scanner and only the columns
// query.Metric renders selected (DESIGN.md §15): row
// groups of clustered segments whose quadkey zone ranges cannot intersect
// the bbox are seeked past instead of decoded, and rows of scanned groups
// placed outside the range are dropped before they reach an accumulator.
// Both only remove rows of tiles outside the queried rectangle, so the
// rendered tiles are byte-identical to the engine path's. Unclustered (v2)
// segments carry no zone maps and stream whole. Callers hold ts.mu.
func (ts *tileServer) tilesPushdown(query tilequery.Query) ([]opendata.ContextTile, error) {
	names, _, err := ts.listing()
	if err != nil {
		return nil, err
	}
	return ts.pushdown(names, query)
}

// pushdown is tilesPushdown over an already listed segment set.
func (ts *tileServer) pushdown(names []string, query tilequery.Query) ([]opendata.ContextTile, error) {
	sel := pushdownSelection(query.Metric)
	sel.Predicate = query.Range.ZonePredicate()
	ix := ts.push
	if err := ix.Reset(query.Range); err != nil {
		return nil, err
	}
	var scanned, skipped, cols int64
	for _, name := range names {
		ctr, err := ts.scanSegment(name, sel, func(sc *dataset.BlockScanner) error {
			_, err := ix.AddScan(sc)
			return err
		})
		scanned += int64(ctr.BlocksScanned)
		skipped += int64(ctr.BlocksSkipped)
		cols += int64(ctr.ColumnsDecoded)
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
	ts.pushBlocksScanned += scanned
	ts.pushBlocksSkipped += skipped
	ts.pushColsDecoded += cols
	return tiles, nil
}

// tileStats is a point-in-time tile-layer snapshot for /statsz.
type tileStats struct {
	tilequery.EngineStats
	Segments      int
	Refolds       uint64
	ColsDecoded   int64
	ColsSkipped   int64
	BlocksScanned int64
	DirParses     uint64
	DirsCached    int

	PushQueries       uint64
	PushSkipHits      uint64
	PushRowsFolded    int64
	PushRowsFiltered  int64
	PushBlocksScanned int64
	PushBlocksSkipped int64
	PushColsDecoded   int64
}

func (ts *tileServer) stats() tileStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return tileStats{
		EngineStats:       ts.eng.Stats(),
		Segments:          len(ts.folded),
		Refolds:           ts.refolds,
		ColsDecoded:       ts.colsDecoded,
		ColsSkipped:       ts.colsSkipped,
		BlocksScanned:     ts.blocksScanned,
		DirParses:         ts.dirParses,
		DirsCached:        len(ts.dirs),
		PushQueries:       ts.pushQueries,
		PushSkipHits:      ts.pushSkipHits,
		PushRowsFolded:    ts.pushRowsFolded,
		PushRowsFiltered:  ts.pushRowsFiltered,
		PushBlocksScanned: ts.pushBlocksScanned,
		PushBlocksSkipped: ts.pushBlocksSkipped,
		PushColsDecoded:   ts.pushColsDecoded,
	}
}

// handleTiles serves GET /v1/tiles?zoom=&bbox=minLat,minLon,maxLat,maxLon
// &metric=&format=&push=. zoom defaults to the base aggregation zoom; bbox
// restricts output to the covered tile rectangle (and routes the query
// through the predicate-pushdown scan path — push=0 opts out); metric
// selects a single-value projection (see tilequery.Metrics); format is
// json (default) or csv, which renders the full schema whatever the
// metric. An unknown metric is answered 400 before any scan.
func (s *Server) handleTiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ts := s.tiles
	q := r.URL.Query()

	zoom := opendata.TileZoom
	if v := q.Get("zoom"); v != "" {
		z, err := strconv.Atoi(v)
		if err != nil || z < 1 || z > opendata.TileZoom {
			http.Error(w, fmt.Sprintf("ingest: zoom must be an integer in [1, %d]", opendata.TileZoom), http.StatusBadRequest)
			return
		}
		zoom = z
	}
	query := tilequery.Query{Zoom: zoom}
	if v := q.Get("bbox"); v != "" {
		rng, err := opendata.ParseBBox(v, zoom)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		query.Range = &rng
	}
	metric := q.Get("metric")
	if err := tilequery.CheckMetric(metric); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	csv := q.Get("format") == "csv"
	if !csv {
		query.Metric = metric
	}

	// A bbox query takes the predicate-pushdown scan path by default
	// (?push=0 forces the engine path); both render identical bytes — the
	// identity TestZoneMapPushdownIdentity gates.
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
		s.tilesFailed(w, err)
		return
	}

	if csv {
		w.Header().Set("Content-Type", "text/csv")
		if err := tilequery.WriteTilesCSV(w, tiles); err != nil {
			s.tilesFailed(w, err)
		}
		return
	}
	bp := s.bufPool.Get().(*[]byte)
	out, err := tilequery.AppendTilesJSON((*bp)[:0], zoom, tiles, query.Metric)
	if err != nil {
		s.bufPool.Put(bp)
		s.tilesFailed(w, err)
		return
	}
	out = append(out, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
	*bp = out[:0]
	s.bufPool.Put(bp)
}

// tilesFailedText is the whole body of a 500 from /v1/tiles.
const tilesFailedText = "ingest: tiles: query failed"

// tilesFailed answers a failed tile query with 500 and fixed text. The
// error names server paths (a segment that could not be listed, opened or
// scanned), so only ServerConfig.Logf sees it.
func (s *Server) tilesFailed(w http.ResponseWriter, err error) {
	s.cfg.logf("ingest: GET /v1/tiles: %v", err)
	http.Error(w, tilesFailedText, http.StatusInternalServerError)
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
	out = append(out, `,"dir_parses":`...)
	out = strconv.AppendUint(out, st.DirParses, 10)
	out = append(out, `,"dirs_cached":`...)
	out = strconv.AppendInt(out, int64(st.DirsCached), 10)
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
	out = append(out, `,"cols_decoded":`...)
	out = strconv.AppendInt(out, st.PushColsDecoded, 10)
	out = append(out, `,"blocks_scanned":`...)
	out = strconv.AppendInt(out, st.PushBlocksScanned, 10)
	out = append(out, `,"blocks_skipped":`...)
	out = strconv.AppendInt(out, st.PushBlocksSkipped, 10)
	out = append(out, '}')
	return out
}
