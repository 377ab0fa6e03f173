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
//     multiset — independent of row order, merge order, and of whether
//     rows arrived in one batch or across many ingest segments. Bit-identical
//     output however the rows are batched falls out with no float-ordering
//     machinery.
//
//   - Order-independent user placement. A subscriber's pseudo-location
//     comes from opendata.UserLocation — a counter-based hash of
//     (opendata.DefaultLocSeed, userID) — not from a sequential RNG, so
//     every reader of any subset of the rows lands a user's tests in the
//     same tile.
//
//   - One fold loop. Every batch, whatever its size, folds row by row
//     straight into the index's own tiles through a placement memo that
//     lives for the index's Reset epoch. Results always render in
//     packed-quadkey order, which at one zoom equals lexicographic quadkey
//     order.
package tilequery

import (
	"fmt"
	"sort"
	"unsafe"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
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
// one element per measurement. UserID is required and sets the row count;
// every other column is optional, and a missing (empty) column folds as
// zero:
//
//   - City: per-row city id (nil = every row belongs to Config.City)
//   - Download, Upload: per-test throughput in Mbps (nil = that average
//     stays 0)
//   - Latency: per-test latency in ms (nil = latency averages stay 0)
//   - Tier: BST-assigned plan tier per row (nil = no tier mix)
//   - Access: access type per row (nil = no WiFi/ethernet split)
//
// A fold for a response that renders one metric may leave out every value
// column that metric does not read: the tiles it renders carry zeros in
// the fields it left out, and the metric's own value is unchanged.
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
func (r *Rows) Len() int { return len(r.UserID) }

// validate rejects any column whose length is neither 0 nor the row count.
func (r *Rows) validate() error {
	n := r.Len()
	for _, c := range [...]struct {
		name string
		len  int
	}{
		{"city", len(r.City)}, {"download", len(r.Download)}, {"upload", len(r.Upload)},
		{"latency", len(r.Latency)}, {"tier", len(r.Tier)}, {"access", len(r.Access)},
	} {
		if c.len != 0 && c.len != n {
			return fmt.Errorf("tilequery: ragged %s column (%d rows, want %d)", c.name, c.len, n)
		}
	}
	return nil
}

// Config fixes the aggregation parameters an Index is built under. Two
// indexes with equal Configs over equal row multisets are identical. Tiles
// accumulate at the base zoom opendata.TileZoom and roll up to coarser
// query zooms.
type Config struct {
	// City is the city id assumed for rows without a City column.
	City string
}

// Query selects what to aggregate: a roll-up zoom and an optional tile
// rectangle (nil Range = every non-empty tile).
type Query struct {
	// Zoom is the output zoom; 0 means the base zoom opendata.TileZoom.
	// Must not exceed the base zoom.
	Zoom int
	// Range restricts output to tiles inside the rectangle, which must be
	// at the query zoom. Nil = no restriction.
	Range *opendata.TileRange
	// Metric names the one value the response renders, an entry of
	// Metrics, or is empty for the full schema. Tiles does not read it: it
	// tells a caller that folds rows for this query alone which columns it
	// may leave out (see Rows).
	Metric string
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
	// the per-tile version the result cache keys on. The generation bumps
	// once per AddRows call.
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

	// memo is the placement memo of the fold. Its tile keys outlive
	// AddRows calls and Resets (placements are pure in the config); its
	// pass is the Reset epoch, and its accumulators are entries of tiles.
	memo placeMemo
}

// NewIndex returns an empty index under cfg.
func NewIndex(cfg Config) *Index {
	ix := &Index{cfg: cfg, tiles: map[uint64]*tileAcc{}}
	ix.memo.begin()
	return ix
}

// Reset empties the index and restricts every later fold to rows whose
// base tile rolls up into r (nil = no restriction): a dropped row never
// reaches an accumulator. Each user places on exactly one tile, so
// dropping rows drops whole tiles and Tiles over r renders the same bytes
// as an unrestricted fold of the same rows would. The placement memo's
// tile keys survive, so a reset-and-refold pays each user's placement once
// per index lifetime; its accumulators start a new epoch. A restricted
// index answers only queries whose Range is exactly r; any other query is
// an error.
func (ix *Index) Reset(r *opendata.TileRange) error {
	var shift uint
	if r != nil {
		if r.Zoom < 0 || r.Zoom > opendata.TileZoom {
			return fmt.Errorf("tilequery: restriction zoom %d outside [0, %d]", r.Zoom, opendata.TileZoom)
		}
		rc := *r
		r = &rc
		shift = 2 * uint(opendata.TileZoom-r.Zoom)
	}
	ix.gen, ix.rows, ix.filtered = 0, 0, 0
	clear(ix.tiles)
	ix.keys, ix.dirty = ix.keys[:0], true
	ix.restrict, ix.shift = r, shift
	ix.memo.begin()
	return nil
}

// RowCount returns the rows folded into accumulators since the last Reset.
func (ix *Index) RowCount() int { return ix.rows }

// FilteredRows returns the rows the restriction dropped since the last
// Reset.
func (ix *Index) FilteredRows() int { return ix.filtered }

// TileCount returns the number of non-empty base tiles.
func (ix *Index) TileCount() int { return len(ix.tiles) }

// denseUserCap bounds the dense per-user memo: user ids below it index a
// slice (one load per row), ids at or above it fall back to a map. City
// generators and the ingest fixtures assign small dense ids, so the fast
// path is the common one; the cap keeps a stray huge id from allocating
// an arbitrarily large slice.
const denseUserCap = 1 << 16

// placeMemo maps (city, user) to the user's placement. A pass is one
// accumulator epoch: the index's memo starts one per Reset, so every
// AddRows call between two Resets shares it. Slots written in earlier
// passes keep their tile key but not their accumulator.
type placeMemo struct {
	pass uint64
	// accs holds the current pass's accumulators, indexed by userSlot.acc;
	// entry 0 stays nil and marks a dropped user. begin empties it, so the
	// memo never keeps a finished epoch's accumulators alive.
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
// one (0 = not placed yet): a pure function of (city, base zoom, user),
// so it never goes stale. acc indexes the user's accumulator in
// placeMemo.accs — 0 when the restriction drops the user — and is
// meaningless once pass has moved on.
type userSlot struct {
	key  uint64
	pass uint64
	acc  int32
}

// begin starts a new pass: every slot's accumulator becomes stale.
func (m *placeMemo) begin() {
	clear(m.accs)
	m.pass++
	m.accs = append(m.accs[:0], nil)
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

// AddRows folds a row batch into the index and returns the number of
// distinct base tiles the batch touched. Because accumulators are
// integer-exact, the index state after the fold is a pure function of the
// row multiset — identical however the same rows are split across AddRows
// calls.
//
// Every row folds straight into the index's tiles through its persistent
// placement memo. A user's placement is pure in (city, userID), so each
// distinct user pins exactly one base tile: the hash + Web-Mercator trig
// runs once per user per index, not once per row, and the first row of a
// user in a Reset epoch settles the user's range test and accumulator for
// the rest of it. The memo also remembers that the user's id is already in
// the tile's device set, so repeat rows skip the set insert too. Row order
// still cannot matter: the memo only short-cuts recomputing pure functions
// and re-inserting set members. Each tile the batch reaches is marked with
// the fold generation, and counted the first time. A missing Download,
// Upload or Latency column adds zero to its sums; a missing Tier or Access
// column adds to no tier or access count.
func (ix *Index) AddRows(rows *Rows) (int, error) {
	if err := rows.validate(); err != nil {
		return 0, err
	}
	n := rows.Len()
	if n == 0 {
		return 0, nil
	}
	ix.gen++
	before := len(ix.tiles)
	var (
		memo     = &ix.memo
		pass     = memo.pass
		gen      = ix.gen
		filtered int
		touched  int
		cm       *cityMemo
		curCity  string
		// An empty column is missing whether or not it is nil (validate),
		// so the loop tests lengths.
		users    = rows.UserID
		cityCol  = rows.City
		download = rows.Download
		upload   = rows.Upload
		latency  = rows.Latency
		tiers    = rows.Tier
		accesses = rows.Access
	)
	for i := 0; i < n; i++ {
		city := ix.cfg.City
		if len(cityCol) != 0 {
			city = cityCol[i]
		}
		// A scanner batch's cities alias one dictionary entry per
		// section, so a run of one city is a run of one string: test
		// identity first and compare contents only when it changes.
		if cm == nil || !sameString(city, curCity) {
			if cm == nil || city != curCity {
				cm = memo.city(city)
			}
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
			ix.placeUser(slot, city, user)
		}
		if slot.acc == 0 { // the restriction dropped the user
			filtered++
			continue
		}
		acc := memo.accs[slot.acc]
		if acc.modGen != gen {
			acc.modGen = gen
			touched++
		}
		var dKbps, uKbps, latUs int64
		if len(download) != 0 {
			dKbps = roundMilli(download[i])
		}
		if len(upload) != 0 {
			uKbps = roundMilli(upload[i])
		}
		if len(latency) != 0 {
			latUs = roundMilli(latency[i])
		}
		tier, hasTier := 0, false
		if len(tiers) != 0 {
			tier, hasTier = tiers[i], true
		}
		var access dataset.AccessType
		if len(accesses) != 0 {
			access = accesses[i]
		}
		acc.addRow(dKbps, uKbps, latUs, tier, hasTier, access)
	}
	ix.filtered += filtered
	ix.rows += n - filtered
	ix.dirty = ix.dirty || len(ix.tiles) != before
	return touched, nil
}

// sameString reports whether a and b are the same string value: the same
// bytes at the same address. Equal contents at different addresses
// report false.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// placeUser settles a user's first row of a pass: it places the user (once
// per index), applies the restriction with the same roll-up test groups
// uses, and records the user in its tile's device set, creating the tile
// if needed.
func (ix *Index) placeUser(s *userSlot, city string, user int) {
	memo := &ix.memo
	if s.key == 0 {
		loc := opendata.UserLocation(opendata.CityCenter(city), opendata.DefaultLocSeed, user)
		x, y := opendata.LatLonToTile(loc.Lat, loc.Lon, opendata.TileZoom)
		s.key = opendata.PackQuadkey(x, y) + 1
	}
	s.pass, s.acc = memo.pass, 0
	key := s.key - 1
	if r := ix.restrict; r != nil {
		if x, y := opendata.UnpackQuadkey(key >> ix.shift); !r.Contains(x, y) {
			return
		}
	}
	acc := ix.tiles[key]
	if acc == nil {
		acc = &tileAcc{devices: map[int]struct{}{}}
		ix.tiles[key] = acc
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
		zoom = opendata.TileZoom
	}
	if zoom < 0 || zoom > opendata.TileZoom {
		return nil, 0, fmt.Errorf("tilequery: query zoom %d outside [0, %d]", zoom, opendata.TileZoom)
	}
	if q.Range != nil && q.Range.Zoom != zoom {
		return nil, 0, fmt.Errorf("tilequery: range zoom %d does not match query zoom %d", q.Range.Zoom, zoom)
	}
	if ix.restrict != nil && (q.Range == nil || *q.Range != *ix.restrict) {
		return nil, 0, fmt.Errorf("tilequery: query range %v differs from the index restriction %v", q.Range, *ix.restrict)
	}
	shift := 2 * uint(opendata.TileZoom-zoom)
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
		// A user places on one tile per city, so the children's device
		// sets rarely overlap and their sizes sum to about the union's:
		// presized to that, the union never rehashes.
		n := 0
		for _, c := range g.children {
			n += len(c.devices)
		}
		a.devices = make(map[int]struct{}, n)
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
