package tilequery

import (
	"bytes"
	"reflect"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
)

// synthRows builds a deterministic row set spread over many users and the
// given cities, with every optional column populated. Values derive from
// the row index through the same SplitMix64-style mixing the generators
// use, so fixtures are cheap and stable.
func synthRows(n int, cities ...string) *Rows {
	r := &Rows{
		UserID:   make([]int, n),
		Download: make([]float64, n),
		Upload:   make([]float64, n),
		Latency:  make([]float64, n),
		Tier:     make([]int, n),
		Access:   make([]dataset.AccessType, n),
	}
	r.City = make([]string, n)
	for i := 0; i < n; i++ {
		h := mixT(uint64(i) + 0x9E3779B97F4A7C15)
		r.UserID[i] = int(h % 997)
		r.Download[i] = 1 + float64(h%900_000)/1000
		r.Upload[i] = 1 + float64(mixT(h)%100_000)/1000
		r.Latency[i] = 1 + float64(mixT(h+1)%200_000)/1000
		r.Tier[i] = int(h % 5)
		switch h % 3 {
		case 0:
			r.Access[i] = dataset.AccessWiFi
		case 1:
			r.Access[i] = dataset.AccessEthernet
		default:
			r.Access[i] = dataset.AccessUnknown
		}
		r.City[i] = cities[h%uint64(len(cities))]
	}
	return r
}

func mixT(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// bigBatch is a fold batch far above the default scanner batch
// (dataset.DefaultScanBatchRows), the size in-memory Aggregate callers hand
// AddRows.
const bigBatch = 1 << 17

func renderJSON(t *testing.T, tiles []opendata.ContextTile, zoom int) []byte {
	t.Helper()
	out, err := AppendTilesJSON(nil, zoom, tiles, "")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAddRowsBatchSplitInvariant(t *testing.T) {
	rows := synthRows(10_000, "A")
	whole, err := Aggregate(rows, Config{}, Query{})
	if err != nil {
		t.Fatal(err)
	}
	// The same rows in three uneven AddRows calls (segment folds).
	ix := NewIndex(Config{})
	for _, cut := range [][2]int{{0, 123}, {123, 7_000}, {7_000, 10_000}} {
		lo, hi := cut[0], cut[1]
		batch := &Rows{
			UserID: rows.UserID[lo:hi], City: rows.City[lo:hi],
			Download: rows.Download[lo:hi], Upload: rows.Upload[lo:hi],
			Latency: rows.Latency[lo:hi],
			Tier:    rows.Tier[lo:hi], Access: rows.Access[lo:hi],
		}
		if _, err := ix.AddRows(batch); err != nil {
			t.Fatal(err)
		}
	}
	split, err := ix.Tiles(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, split) {
		t.Fatal("batch-split fold diverged from single-batch fold")
	}
}

func TestRollupZoom(t *testing.T) {
	rows := synthRows(5_000, "A", "B", "C")
	ix := NewIndex(Config{})
	if _, err := ix.AddRows(rows); err != nil {
		t.Fatal(err)
	}
	base, err := ix.Tiles(Query{})
	if err != nil {
		t.Fatal(err)
	}

	// Query zoom 0 is the base-zoom sentinel, so roll-ups start at 1.
	for _, zoom := range []int{12, 4, 1} {
		rolled, err := ix.Tiles(Query{Zoom: zoom})
		if err != nil {
			t.Fatal(err)
		}
		// Every base tile belongs to exactly one rolled tile (its quadkey
		// prefix), and test counts are conserved.
		counts := map[string]int{}
		for _, b := range base {
			parent, err := opendata.ParentQuadkey(b.Quadkey, zoom)
			if err != nil {
				t.Fatal(err)
			}
			counts[parent] += b.Tests
		}
		if len(rolled) != len(counts) {
			t.Fatalf("zoom %d: %d rolled tiles, want %d", zoom, len(rolled), len(counts))
		}
		total := 0
		for i, r := range rolled {
			if r.Tests != counts[r.Quadkey] {
				t.Fatalf("zoom %d tile %q: %d tests, want %d", zoom, r.Quadkey, r.Tests, counts[r.Quadkey])
			}
			if i > 0 && rolled[i-1].Quadkey >= r.Quadkey {
				t.Fatalf("zoom %d output out of quadkey order at %d", zoom, i)
			}
			total += r.Tests
		}
		if total != rows.Len() {
			t.Fatalf("zoom %d: %d tests total, want %d", zoom, total, rows.Len())
		}
	}

	if _, err := ix.Tiles(Query{Zoom: opendata.TileZoom + 1}); err == nil {
		t.Fatal("query zoom above the base zoom accepted")
	}
}

func TestRangeFilter(t *testing.T) {
	rows := synthRows(5_000, "A", "B")
	ix := NewIndex(Config{})
	if _, err := ix.AddRows(rows); err != nil {
		t.Fatal(err)
	}
	all, err := ix.Tiles(Query{})
	if err != nil {
		t.Fatal(err)
	}
	// Filter by the quadkey prefix of the first tile: the result must be
	// exactly the string-prefix-filtered subset of the full output.
	prefix := all[0].Quadkey[:6]
	r, err := opendata.PrefixRange(prefix, opendata.TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Tiles(Query{Range: &r})
	if err != nil {
		t.Fatal(err)
	}
	var want []opendata.ContextTile
	for _, tl := range all {
		if tl.Quadkey[:len(prefix)] == prefix {
			want = append(want, tl)
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("range filter returned %d tiles, want %d matching prefix %q", len(got), len(want), prefix)
	}
	// A range at the wrong zoom is rejected.
	bad := opendata.WholeZoom(3)
	if _, err := ix.Tiles(Query{Range: &bad}); err == nil {
		t.Fatal("range at the wrong zoom accepted")
	}
}

func TestEngineCacheColdWarmIdentity(t *testing.T) {
	rows := synthRows(5_000, "A", "B")
	eng := NewEngine(Config{}, 0)
	if err := eng.AddRows(rows); err != nil {
		t.Fatal(err)
	}
	q := Query{Zoom: 12}
	cold, err := eng.Tiles(q)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Tiles(q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderJSON(t, cold, 12), renderJSON(t, warm, 12)) {
		t.Fatal("cached result differs from cold computation")
	}
	st := eng.Stats()
	if st.CacheMisses != uint64(len(cold)) || st.CacheHits != uint64(len(warm)) {
		t.Fatalf("stats %+v: want %d misses then %d hits", st, len(cold), len(warm))
	}
	if st.Rows != rows.Len() || st.Tiles == 0 || st.CacheLen == 0 {
		t.Fatalf("stats %+v: missing index/cache sizes", st)
	}
}

func TestEngineInvalidationOnFold(t *testing.T) {
	a, b := synthRows(4_000, "A"), synthRows(4_000, "B")
	eng := NewEngine(Config{}, 0)
	if err := eng.AddRows(a); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Tiles(Query{}); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	// Folding city B touches only B's tiles: A's cached entries stay live.
	if err := eng.AddRows(b); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if after.Invalidations <= before.Invalidations {
		t.Fatal("fold did not report invalidated tiles")
	}
	tiles, err := eng.Tiles(Query{})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	newMisses := st.CacheMisses - after.CacheMisses
	newHits := st.CacheHits - after.CacheHits
	if newHits != before.CacheMisses {
		t.Fatalf("untouched tiles: %d hits, want %d (every city-A tile)", newHits, before.CacheMisses)
	}
	if newMisses != uint64(len(tiles))-newHits {
		t.Fatalf("touched tiles: %d misses, want %d", newMisses, uint64(len(tiles))-newHits)
	}
	// The engine after incremental folds matches a cold engine fed everything.
	cold := NewEngine(Config{}, 0)
	if err := cold.AddRows(a); err != nil {
		t.Fatal(err)
	}
	if err := cold.AddRows(b); err != nil {
		t.Fatal(err)
	}
	coldTiles, err := cold.Tiles(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderJSON(t, tiles, opendata.TileZoom), renderJSON(t, coldTiles, opendata.TileZoom)) {
		t.Fatal("warm engine diverged from cold engine over the same rows")
	}
}

// TestEngineResetKeepsCacheCapacity: Reset (a compaction refold or a
// failed fold) replaces the result cache with one of the configured
// capacity, neither growing a small cache nor shrinking a large one.
func TestEngineResetKeepsCacheCapacity(t *testing.T) {
	const capacity = 8
	rows := synthRows(2_000, "A", "B")
	eng := NewEngine(Config{}, capacity)
	for round := 0; round < 2; round++ {
		if round > 0 {
			eng.Reset()
		}
		if err := eng.AddRows(rows); err != nil {
			t.Fatal(err)
		}
		tiles, err := eng.Tiles(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(tiles) <= capacity {
			t.Fatalf("query answered %d tiles, want more than the cache's %d", len(tiles), capacity)
		}
		if n := eng.Stats().CacheLen; n > capacity {
			t.Fatalf("round %d: cache holds %d entries, capacity %d", round, n, capacity)
		}
	}
}

func TestEngineCacheServesClones(t *testing.T) {
	rows := synthRows(2_000, "A")
	eng := NewEngine(Config{}, 0)
	if err := eng.AddRows(rows); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Tiles(Query{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the caller's copy; the cache must be unaffected.
	for i := range first {
		for j := range first[i].TierCounts {
			first[i].TierCounts[j] = -1
		}
	}
	second, err := eng.Tiles(Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range second {
		for _, n := range tl.TierCounts {
			if n < 0 {
				t.Fatal("caller mutation leaked into the cache")
			}
		}
	}
}

func TestRowsValidate(t *testing.T) {
	bad := &Rows{UserID: []int{1}, Download: []float64{1, 2}, Upload: []float64{1, 2}}
	if _, err := NewIndex(Config{}).AddRows(bad); err == nil {
		t.Fatal("ragged required column accepted")
	}
	bad2 := &Rows{
		UserID: []int{1, 2}, Download: []float64{1, 2}, Upload: []float64{1, 2},
		Tier: []int{1},
	}
	if _, err := NewIndex(Config{}).AddRows(bad2); err == nil {
		t.Fatal("ragged optional column accepted")
	}
	// Download and Upload may be missing, nil or empty, but a present
	// value column must hold one value per user id.
	rows := synthRows(10, "A")
	for _, r := range []*Rows{
		{UserID: rows.UserID, City: rows.City},
		{UserID: rows.UserID, City: rows.City, Download: rows.Download[:0], Upload: rows.Upload, Latency: rows.Latency[:0]},
		{UserID: rows.UserID, Download: rows.Download},
	} {
		if _, err := NewIndex(Config{}).AddRows(r); err != nil {
			t.Fatalf("rows with %d downloads, %d uploads rejected: %v", len(r.Download), len(r.Upload), err)
		}
	}
	for _, r := range []*Rows{
		{UserID: rows.UserID, Download: rows.Download[:9]},
		{UserID: rows.UserID, Download: append(rows.Download[:10:10], 1)},
		{UserID: rows.UserID, Upload: rows.Upload[:1]},
		{UserID: rows.UserID[:0], Download: rows.Download},
	} {
		if _, err := NewIndex(Config{}).AddRows(r); err == nil {
			t.Fatalf("%d user ids with %d downloads, %d uploads accepted", len(r.UserID), len(r.Download), len(r.Upload))
		}
	}
}

func TestAppendTilesJSONMetric(t *testing.T) {
	tiles := []opendata.ContextTile{
		{Quadkey: "0231", AvgDKbps: 5000, AvgUKbps: 700, AvgLatMs: 12, Tests: 3, Devices: 2, WiFi: 1, TierCounts: []int{0, 2, 1}},
	}
	full, err := AppendTilesJSON(nil, 4, tiles, "")
	if err != nil {
		t.Fatal(err)
	}
	want := `{"zoom":4,"count":1,"tiles":[{"quadkey":"0231","avg_d_kbps":5000,"avg_u_kbps":700,"avg_lat_ms":12,"tests":3,"devices":2,"wifi":1,"ethernet":0,"tier_counts":[0,2,1]}]}`
	if string(full) != want {
		t.Fatalf("full render:\n got %s\nwant %s", full, want)
	}
	proj, err := AppendTilesJSON(nil, 4, tiles, "download")
	if err != nil {
		t.Fatal(err)
	}
	wantProj := `{"zoom":4,"metric":"download","count":1,"tiles":[{"quadkey":"0231","value":5000}]}`
	if string(proj) != wantProj {
		t.Fatalf("metric render:\n got %s\nwant %s", proj, wantProj)
	}
	if _, err := AppendTilesJSON(nil, 4, tiles, "nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
	for _, m := range Metrics {
		if _, err := AppendTilesJSON(nil, 4, tiles, m); err != nil {
			t.Fatalf("metric %q rejected: %v", m, err)
		}
	}
}
