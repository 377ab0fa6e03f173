package tilequery

import (
	"speedctx/internal/dataset"
	"speedctx/internal/fitcache"
	"speedctx/internal/opendata"
)

// DefaultCacheTiles is the default capacity of an engine's result cache —
// comfortably above the non-empty zoom-16 tile count of a study city, so
// steady-state serving is all hits.
const DefaultCacheTiles = 4096

// Engine is an Index with a content-addressed per-tile result cache in
// front of it — the ingest server's serving-path wrapper. It does no
// locking of its own: a caller that uses it from several goroutines
// serializes every call (the ingest tile server holds its own mutex
// around each).
//
// The cache reuses the fitcache LRU discipline: a rendered tile is a pure
// function of (tile, zoom, data version, query config, tile version), so
// its key is the hash of exactly those fields. The tile version is the
// index fold generation that last touched any base tile under the output
// tile — folding a new segment bumps it for affected tiles only, which
// invalidates their entries by key change while every untouched tile
// keeps hitting its old entry. Cold recompute and cache hit are therefore
// byte-identical by construction, and invalidation needs no eviction
// sweep.
type Engine struct {
	ix    *Index
	cache *fitcache.Cache
	// cacheTiles is the result cache's configured capacity, kept across
	// Resets.
	cacheTiles int
	hits       uint64
	miss       uint64
	inval      uint64
}

// EngineStats is a point-in-time snapshot of engine counters for /statsz.
type EngineStats struct {
	// Rows and Tiles size the index: rows folded, non-empty base tiles.
	Rows  int
	Tiles int
	// CacheHits / CacheMisses / Invalidations count result-cache outcomes;
	// Invalidations is the cumulative number of (base-tile, fold) touches
	// that obsoleted cached entries.
	CacheHits     uint64
	CacheMisses   uint64
	Invalidations uint64
	// CacheLen is the live entry count.
	CacheLen int
}

// NewEngine returns an empty engine under cfg. cacheTiles bounds the
// result cache (0 = DefaultCacheTiles).
func NewEngine(cfg Config, cacheTiles int) *Engine {
	if cacheTiles <= 0 {
		cacheTiles = DefaultCacheTiles
	}
	return &Engine{ix: NewIndex(cfg), cache: fitcache.New(cacheTiles), cacheTiles: cacheTiles}
}

// AddRows folds a row batch, counting the base tiles whose cached results
// the fold invalidated.
func (e *Engine) AddRows(rows *Rows) error {
	touched, err := e.ix.AddRows(rows)
	if err != nil {
		return err
	}
	e.inval += uint64(touched)
	return nil
}

// Reset empties the index, keeping its placement memo (used when a
// segment directory is compacted out from under a server). Fold
// generations restart, so a dead index's cache entries could collide with
// a new one's keys: Reset replaces the cache with an empty one of the
// configured capacity, keeping the correctness argument trivial.
func (e *Engine) Reset() {
	_ = e.ix.Reset(nil) // an unrestricted Reset cannot fail
	e.cache = fitcache.New(e.cacheTiles)
}

// Stats returns current counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Rows: e.ix.RowCount(), Tiles: e.ix.TileCount(),
		CacheHits: e.hits, CacheMisses: e.miss, Invalidations: e.inval,
		CacheLen: e.cache.Len(),
	}
}

// Tiles answers a query through the result cache: rolled tiles in quadkey
// order, each either served from cache (hit: ~constant work per tile) or
// rendered from its child accumulators and cached.
func (e *Engine) Tiles(q Query) ([]opendata.ContextTile, error) {
	groups, zoom, err := e.ix.groups(q)
	if err != nil {
		return nil, err
	}
	out := make([]opendata.ContextTile, len(groups))
	for i, g := range groups {
		key := e.tileKey(g, zoom)
		if v, ok := e.cache.Get(key); ok {
			e.hits++
			out[i] = cloneTile(v.(*opendata.ContextTile))
			continue
		}
		e.miss++
		t := renderGroup(g, zoom)
		cached := cloneTile(&t)
		e.cache.Put(key, &cached)
		out[i] = t
	}
	return out, nil
}

// tileKey hashes the full identity of one cached result:
// (tile, zoom, data version, query config, tile version).
func (e *Engine) tileKey(g group, zoom int) fitcache.Key {
	h := fitcache.NewHasher()
	h.String("tilequery-tile")
	h.Uint64(dataset.DataVersion)
	h.Uint64(g.key)
	h.Int(zoom)
	h.String(e.ix.cfg.City)
	h.Uint64(g.version)
	return h.Sum()
}

// cloneTile deep-copies a tile so cached values never alias caller-visible
// slices.
func cloneTile(t *opendata.ContextTile) opendata.ContextTile {
	out := *t
	if t.TierCounts != nil {
		out.TierCounts = append([]int(nil), t.TierCounts...)
	}
	return out
}
