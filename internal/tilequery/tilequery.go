// Package tilequery is the geo-tiled aggregate query engine (DESIGN.md
// §13): it folds per-test measurement columns into contextualized
// per-quadkey aggregates (opendata.ContextTile) and answers bounding-box
// queries over them at any roll-up zoom.
//
// The engine is built on three determinism decisions:
//
//   - Integer-exact accumulation. A tile accumulator holds int64 sums of
//     per-row rounded integer units (kbps, microseconds) plus counts and a
//     device-id set. Integer addition and set union are associative and
//     commutative, so a tile's aggregate is a pure function of its row
//     multiset — independent of row order, chunk boundaries, worker count,
//     merge order, and of whether rows arrived in one batch or across many
//     ingest segments. Bit-identical output at any parallelism falls out
//     with no float-ordering machinery.
//
//   - Order-independent user placement. A subscriber's pseudo-location
//     comes from opendata.UserLocation — a counter-based hash of
//     (seed, userID) — not from a sequential RNG, so every reader of any
//     subset of the rows lands a user's tests in the same tile.
//
//   - Sorted-merge reduction. Aggregation fans out over internal/parallel
//     in fixed chunks; per-chunk partial maps merge into the index (safe in
//     any order, by the first decision), and results always render in
//     packed-quadkey order, which at one zoom equals lexicographic quadkey
//     order.
package tilequery

import (
	"fmt"
	"sort"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/parallel"
)

// roundMilli converts a float measurement to integer milli-units (Mbps →
// kbps, ms → µs) rounding half away from zero — the accumulation contract
// every fold implementation must share. For non-negative finite v it is
// exactly math.Round(v*1000), as one add and one convert instead of
// math.Round's bit manipulation; the fold calls it three times per row, so
// the difference is measurable at a million rows.
func roundMilli(v float64) int64 {
	v *= 1000
	if v >= 0 {
		return int64(v + 0.5)
	}
	return int64(v - 0.5)
}

// Rows is the columnar input of one aggregation fold: parallel slices,
// one element per measurement. Download, Upload and UserID are required;
// the rest are optional context:
//
//   - City: per-row city id (nil = every row belongs to Config.City)
//   - Latency: per-test latency in ms (nil = latency averages stay 0)
//   - Tier: BST-assigned plan tier per row (nil = no tier mix)
//   - Access: access type per row (nil = no WiFi/ethernet split)
type Rows struct {
	UserID   []int
	City     []string
	Download []float64
	Upload   []float64
	Latency  []float64
	Tier     []int
	Access   []dataset.AccessType
}

// Len returns the row count.
func (r *Rows) Len() int { return len(r.Download) }

func (r *Rows) validate() error {
	n := r.Len()
	if len(r.UserID) != n || len(r.Upload) != n {
		return fmt.Errorf("tilequery: ragged required columns (%d users, %d downloads, %d uploads)",
			len(r.UserID), n, len(r.Upload))
	}
	for name, l := range map[string]int{
		"city": len(r.City), "latency": len(r.Latency),
		"tier": len(r.Tier), "access": len(r.Access),
	} {
		if l != 0 && l != n {
			return fmt.Errorf("tilequery: ragged %s column (%d rows, want %d)", name, l, n)
		}
	}
	return nil
}

// Config fixes the aggregation parameters an Index is built under. Two
// indexes with equal Configs over equal row multisets are identical.
type Config struct {
	// Zoom is the base aggregation zoom (tiles are accumulated at this
	// zoom and rolled up to coarser query zooms). 0 means opendata.TileZoom.
	Zoom int
	// LocSeed seeds the per-user location hash. 0 means
	// opendata.DefaultLocSeed.
	LocSeed int64
	// City is the city id assumed for rows without a City column.
	City string
	// Parallelism is the worker knob for folds (0 = all CPUs, 1 = serial).
	// It does not affect output.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Zoom == 0 {
		c.Zoom = opendata.TileZoom
	}
	if c.LocSeed == 0 {
		c.LocSeed = opendata.DefaultLocSeed
	}
	return c
}

// Query selects what to aggregate: a roll-up zoom and an optional tile
// rectangle (nil Range = every non-empty tile).
type Query struct {
	// Zoom is the output zoom; 0 means the index's base zoom. Must not
	// exceed the base zoom.
	Zoom int
	// Range restricts output to tiles inside the rectangle, which must be
	// at the query zoom. Nil = no restriction.
	Range *opendata.TileRange
}

// tileAcc is the integer-exact accumulator of one base-zoom tile.
type tileAcc struct {
	sumDKbps int64
	sumUKbps int64
	sumLatUs int64
	tests    int
	wifi     int
	ethernet int
	tiers    []int
	devices  map[int]struct{}
	// modGen is the index fold generation that last touched this tile —
	// the per-tile version the result cache keys on.
	modGen uint64
}

func (a *tileAcc) addRow(dKbps, uKbps, latUs int64, tier int, hasTier bool, access dataset.AccessType) {
	a.sumDKbps += dKbps
	a.sumUKbps += uKbps
	a.sumLatUs += latUs
	a.tests++
	switch access {
	case dataset.AccessWiFi:
		a.wifi++
	case dataset.AccessEthernet:
		a.ethernet++
	}
	if hasTier {
		if tier >= len(a.tiers) {
			grown := make([]int, tier+1)
			copy(grown, a.tiers)
			a.tiers = grown
		}
		a.tiers[tier]++
	}
}

func (a *tileAcc) merge(b *tileAcc) {
	a.sumDKbps += b.sumDKbps
	a.sumUKbps += b.sumUKbps
	a.sumLatUs += b.sumLatUs
	a.tests += b.tests
	a.wifi += b.wifi
	a.ethernet += b.ethernet
	if len(b.tiers) > len(a.tiers) {
		grown := make([]int, len(b.tiers))
		copy(grown, a.tiers)
		a.tiers = grown
	}
	for t, n := range b.tiers {
		a.tiers[t] += n
	}
	for u := range b.devices {
		a.devices[u] = struct{}{}
	}
}

// Index holds the per-tile accumulators of every row folded so far, keyed
// by packed quadkey at the base zoom.
type Index struct {
	cfg      Config
	gen      uint64
	rows     int
	filtered int
	tiles    map[uint64]*tileAcc
	keys     []uint64
	dirty    bool

	// restrict, when non-nil, drops every row whose base tile, shifted
	// right by shift bits (rolled up to restrict.Zoom), lies outside it —
	// see Reset.
	restrict *opendata.TileRange
	shift    uint

	// memo is the placement memo of the serial fold path. It outlives
	// AddRows calls and Resets: placements are pure in the config.
	memo placeMemo
}

// NewIndex returns an empty index under cfg.
func NewIndex(cfg Config) *Index {
	return &Index{cfg: cfg.withDefaults(), tiles: map[uint64]*tileAcc{}}
}

// Reset empties the index and restricts every later fold to rows whose
// base tile rolls up into r (nil = no restriction): a dropped row never
// reaches an accumulator. Each user places on exactly one tile, so
// dropping rows drops whole tiles and Tiles over r renders the same bytes
// as an unrestricted fold of the same rows would. The placement memo
// survives, so a reset-and-refold pays each user's placement once per
// index lifetime. A restricted index answers only queries whose Range is
// exactly r; any other query is an error.
func (ix *Index) Reset(r *opendata.TileRange) error {
	var shift uint
	if r != nil {
		if r.Zoom < 0 || r.Zoom > ix.cfg.Zoom {
			return fmt.Errorf("tilequery: restriction zoom %d outside [0, %d]", r.Zoom, ix.cfg.Zoom)
		}
		rc := *r
		r = &rc
		shift = 2 * uint(ix.cfg.Zoom-r.Zoom)
	}
	ix.gen, ix.rows, ix.filtered = 0, 0, 0
	ix.tiles = map[uint64]*tileAcc{}
	ix.keys, ix.dirty = nil, false
	ix.restrict, ix.shift = r, shift
	return nil
}

// Zoom returns the base aggregation zoom.
func (ix *Index) Zoom() int { return ix.cfg.Zoom }

// Gen returns the fold generation — it bumps once per AddRows call.
func (ix *Index) Gen() uint64 { return ix.gen }

// RowCount returns the rows folded into accumulators since the last Reset.
func (ix *Index) RowCount() int { return ix.rows }

// FilteredRows returns the rows the restriction dropped since the last
// Reset.
func (ix *Index) FilteredRows() int { return ix.filtered }

// TileCount returns the number of non-empty base tiles.
func (ix *Index) TileCount() int { return len(ix.tiles) }

// aggChunkRows is the fold chunk size: big enough that per-chunk memo
// setup and the partial-map merges amortize, small enough to parallelize
// 100k-row folds. Chunk boundaries never affect output (integer-exact
// accumulation), so this is purely a throughput knob.
const aggChunkRows = 1 << 17

// denseUserCap bounds the dense per-user memo: user ids below it index a
// slice (one load per row), ids at or above it fall back to a map. City
// generators and the ingest fixtures assign small dense ids, so the fast
// path is the common one; the cap keeps a stray huge id from allocating
// an arbitrarily large slice.
const denseUserCap = 1 << 16

// placeMemo maps (city, user) to the user's placement. Each foldChunk call
// is one pass; slots written in earlier passes keep their tile key but not
// their accumulator.
type placeMemo struct {
	pass uint64
	// accs holds the current pass's accumulators, indexed by userSlot.acc;
	// entry 0 stays nil and marks a dropped user. It is emptied when the
	// pass ends, so the memo never keeps a finished fold's partials alive.
	accs []*tileAcc
	// Cities per fold are few (one per configured model), so a
	// move-to-front list beats a string-keyed map for the per-row
	// city → memo step: same-string compares shortcut on the shared
	// backing pointer.
	cities []*cityMemo
}

// cityMemo is one city's per-user slots.
type cityMemo struct {
	name   string
	dense  []userSlot
	sparse map[int]*userSlot
}

// userSlot is one user's memo entry. key is the packed base-tile key plus
// one (0 = not placed yet): a pure function of (city, LocSeed, base zoom,
// user), so it never goes stale. acc indexes the user's accumulator in
// placeMemo.accs — 0 when the restriction drops the user — and is
// meaningless once pass has moved on.
type userSlot struct {
	key  uint64
	pass uint64
	acc  int32
}

// city returns name's memo, moving it to the front of the list.
func (m *placeMemo) city(name string) *cityMemo {
	for j, cm := range m.cities {
		if cm.name == name {
			m.cities[0], m.cities[j] = cm, m.cities[0]
			return cm
		}
	}
	cm := &cityMemo{name: name}
	m.cities = append([]*cityMemo{cm}, m.cities...)
	return cm
}

// slot returns user's slot, growing the dense slice or falling back to
// the sparse map as needed.
func (cm *cityMemo) slot(user int) *userSlot {
	if user >= 0 && user < denseUserCap {
		if user >= len(cm.dense) {
			grown := make([]userSlot, min(denseUserCap, max(user+1, 2*len(cm.dense), 1024)))
			copy(grown, cm.dense)
			cm.dense = grown
		}
		return &cm.dense[user]
	}
	s := cm.sparse[user]
	if s == nil {
		if cm.sparse == nil {
			cm.sparse = map[int]*userSlot{}
		}
		s = &userSlot{}
		cm.sparse[user] = s
	}
	return s
}

// chunkFold is one foldChunk result: the partial tile map and the count of
// rows the restriction dropped.
type chunkFold struct {
	tiles    map[uint64]*tileAcc
	filtered int
}

// AddRows folds a row batch into the index and returns the number of
// distinct base tiles the batch touched. Because accumulators are
// integer-exact, the index state after the fold is a pure function of the
// row multiset — identical at every Parallelism setting and however the
// same rows are split across AddRows calls.
//
// A batch of at most one chunk (every scanner batch) folds inline against
// the index's persistent placement memo. A larger batch fans out over
// internal/parallel in fixed chunks, each with a memo of its own, so
// concurrent chunks never write shared state.
func (ix *Index) AddRows(rows *Rows) (int, error) {
	if err := rows.validate(); err != nil {
		return 0, err
	}
	n := rows.Len()
	if n == 0 {
		return 0, nil
	}
	ix.gen++
	var partials []chunkFold
	if n <= aggChunkRows {
		partials = []chunkFold{ix.foldChunk(rows, 0, n, &ix.memo)}
	} else {
		partials = parallel.MapChunks(ix.cfg.Parallelism, n, aggChunkRows,
			func(_, lo, hi int) chunkFold {
				return ix.foldChunk(rows, lo, hi, &placeMemo{})
			})
	}
	touched := 0
	for _, part := range partials {
		ix.filtered += part.filtered
		n -= part.filtered
		// Map iteration order is random, and that is fine: merging integer
		// accumulators commutes.
		for key, acc := range part.tiles {
			dst := ix.tiles[key]
			if dst == nil {
				ix.tiles[key] = acc
				acc.modGen = ix.gen
				ix.dirty = true
				touched++
				continue
			}
			dst.merge(acc)
			if dst.modGen != ix.gen {
				dst.modGen = ix.gen
				touched++
			}
		}
	}
	ix.rows += n
	return touched, nil
}

// foldChunk accumulates rows [lo, hi) into a fresh partial map, as one
// pass over memo.
//
// A user's placement is pure in (city, LocSeed, userID), so each distinct
// user pins exactly one base tile: the hash + Web-Mercator trig runs once
// per user per memo, not once per row, and the first row of a user in a
// pass settles the user's range test and accumulator for the rest of it.
// The memo also remembers that the user's id is already in the tile's
// device set, so repeat rows skip the set insert too. Row order still
// cannot matter: the memo only short-cuts recomputing pure functions and
// re-inserting set members.
func (ix *Index) foldChunk(rows *Rows, lo, hi int, memo *placeMemo) chunkFold {
	part := make(map[uint64]*tileAcc)
	memo.pass++
	memo.accs = append(memo.accs[:0], nil)
	var (
		pass     = memo.pass
		filtered int
		cm       *cityMemo
		curCity  = "\x00"
		users    = rows.UserID
		cityCol  = rows.City
		download = rows.Download
		upload   = rows.Upload
		latency  = rows.Latency
		tiers    = rows.Tier
		accesses = rows.Access
	)
	for i := lo; i < hi; i++ {
		city := ix.cfg.City
		if cityCol != nil {
			city = cityCol[i]
		}
		if city != curCity || cm == nil {
			cm = memo.city(city)
			curCity = city
		}
		user := users[i]
		var slot *userSlot
		if user >= 0 && user < len(cm.dense) {
			slot = &cm.dense[user]
		} else {
			slot = cm.slot(user)
		}
		if slot.pass != pass {
			ix.placeUser(part, memo, slot, city, user)
		}
		acc := memo.accs[slot.acc]
		if acc == nil {
			filtered++
			continue
		}
		var latUs int64
		if latency != nil {
			latUs = roundMilli(latency[i])
		}
		tier, hasTier := 0, false
		if tiers != nil {
			tier, hasTier = tiers[i], true
		}
		var access dataset.AccessType
		if accesses != nil {
			access = accesses[i]
		}
		acc.addRow(roundMilli(download[i]), roundMilli(upload[i]),
			latUs, tier, hasTier, access)
	}
	clear(memo.accs)
	return chunkFold{tiles: part, filtered: filtered}
}

// placeUser settles a user's first row of a pass: it places the user (once
// per memo), applies the restriction with the same roll-up test groups
// uses, and records the user in its tile's device set.
func (ix *Index) placeUser(part map[uint64]*tileAcc, memo *placeMemo, s *userSlot, city string, user int) {
	if s.key == 0 {
		loc := opendata.UserLocation(opendata.CityCenter(city), ix.cfg.LocSeed, user)
		x, y := opendata.LatLonToTile(loc.Lat, loc.Lon, ix.cfg.Zoom)
		s.key = opendata.PackQuadkey(x, y) + 1
	}
	s.pass, s.acc = memo.pass, 0
	key := s.key - 1
	if r := ix.restrict; r != nil {
		if x, y := opendata.UnpackQuadkey(key >> ix.shift); !r.Contains(x, y) {
			return
		}
	}
	acc := part[key]
	if acc == nil {
		acc = &tileAcc{devices: map[int]struct{}{}}
		part[key] = acc
	}
	acc.devices[user] = struct{}{}
	s.acc = int32(len(memo.accs))
	memo.accs = append(memo.accs, acc)
}

// sortedKeys returns the packed tile keys in ascending order, rebuilding
// the cached order only after folds.
func (ix *Index) sortedKeys() []uint64 {
	if ix.dirty || ix.keys == nil {
		ix.keys = ix.keys[:0]
		for k := range ix.tiles {
			ix.keys = append(ix.keys, k)
		}
		sort.Slice(ix.keys, func(i, j int) bool { return ix.keys[i] < ix.keys[j] })
		ix.dirty = false
	}
	return ix.keys
}

// group is one rolled-up output tile: the packed key at the query zoom,
// the child accumulators backing it, and the latest generation that
// touched any child (the tile's cache version).
type group struct {
	key      uint64
	children []*tileAcc
	version  uint64
}

// groups rolls the sorted base tiles up to the query zoom and applies the
// range filter. Children of one parent are contiguous in packed-key order,
// so the roll-up is a single linear scan.
func (ix *Index) groups(q Query) ([]group, int, error) {
	zoom := q.Zoom
	if zoom == 0 {
		zoom = ix.cfg.Zoom
	}
	if zoom < 0 || zoom > ix.cfg.Zoom {
		return nil, 0, fmt.Errorf("tilequery: query zoom %d outside [0, %d]", zoom, ix.cfg.Zoom)
	}
	if q.Range != nil && q.Range.Zoom != zoom {
		return nil, 0, fmt.Errorf("tilequery: range zoom %d does not match query zoom %d", q.Range.Zoom, zoom)
	}
	if ix.restrict != nil && (q.Range == nil || *q.Range != *ix.restrict) {
		return nil, 0, fmt.Errorf("tilequery: query range %v differs from the index restriction %v", q.Range, *ix.restrict)
	}
	shift := 2 * uint(ix.cfg.Zoom-zoom)
	var out []group
	keys := ix.sortedKeys()
	for i := 0; i < len(keys); {
		parent := keys[i] >> shift
		g := group{key: parent}
		for ; i < len(keys) && keys[i]>>shift == parent; i++ {
			acc := ix.tiles[keys[i]]
			g.children = append(g.children, acc)
			if acc.modGen > g.version {
				g.version = acc.modGen
			}
		}
		if q.Range != nil {
			x, y := opendata.UnpackQuadkey(parent)
			if !q.Range.Contains(x, y) {
				continue
			}
		}
		out = append(out, g)
	}
	return out, zoom, nil
}

// render materializes one rolled tile from its children.
func renderGroup(g group, zoom int) opendata.ContextTile {
	var a tileAcc
	if len(g.children) == 1 {
		a = *g.children[0]
	} else {
		a.devices = map[int]struct{}{}
		for _, c := range g.children {
			a.merge(c)
		}
	}
	x, y := opendata.UnpackQuadkey(g.key)
	t := opendata.ContextTile{
		Quadkey:  opendata.TileToQuadkey(x, y, zoom),
		AvgDKbps: int(a.sumDKbps / int64(a.tests)),
		AvgUKbps: int(a.sumUKbps / int64(a.tests)),
		AvgLatMs: int(a.sumLatUs / int64(a.tests) / 1000),
		Tests:    a.tests,
		Devices:  len(a.devices),
		WiFi:     a.wifi,
		Ethernet: a.ethernet,
	}
	// Trim trailing zero tiers so a tile's rendering depends only on its
	// own rows, never on what other tiles observed.
	tiers := a.tiers
	for len(tiers) > 0 && tiers[len(tiers)-1] == 0 {
		tiers = tiers[:len(tiers)-1]
	}
	if len(tiers) > 0 {
		t.TierCounts = append([]int(nil), tiers...)
	}
	return t
}

// Tiles answers a query directly from the index (no result cache): the
// rolled-up, range-filtered tiles in quadkey order.
func (ix *Index) Tiles(q Query) ([]opendata.ContextTile, error) {
	groups, zoom, err := ix.groups(q)
	if err != nil {
		return nil, err
	}
	out := make([]opendata.ContextTile, len(groups))
	for i, g := range groups {
		out[i] = renderGroup(g, zoom)
	}
	return out, nil
}

// Aggregate folds rows under cfg and answers q in one shot — the
// convenience path for CLIs and tests that do not reuse an index.
func Aggregate(rows *Rows, cfg Config, q Query) ([]opendata.ContextTile, error) {
	ix := NewIndex(cfg)
	if _, err := ix.AddRows(rows); err != nil {
		return nil, err
	}
	return ix.Tiles(q)
}
