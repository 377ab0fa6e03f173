package opendata

import (
	"math"
	"sort"
	"testing"

	"speedctx/internal/geo"
)

// Satellite edge cases for the quadkey math the tile query layer leans on:
// Web-Mercator pole clamping, antimeridian wrap, the zoom extremes, and
// the parent/prefix-range helpers.

func TestLatClampingAtPoles(t *testing.T) {
	const zoom = TileZoom
	limX, limY := LatLonToTile(85.05112878, 0, zoom)
	for _, lat := range []float64{85.05112878, 85.1, 89.9, 90, 1000} {
		x, y := LatLonToTile(lat, 0, zoom)
		if x != limX || y != limY {
			t.Errorf("lat %g: tile (%d,%d), want clamp to (%d,%d)", lat, x, y, limX, limY)
		}
	}
	if _, y := LatLonToTile(90, 0, zoom); y != 0 {
		t.Errorf("north pole: y = %d, want 0", y)
	}
	max := (1 << zoom) - 1
	for _, lat := range []float64{-85.05112878, -86, -90, -1000} {
		if _, y := LatLonToTile(lat, 0, zoom); y != max {
			t.Errorf("lat %g: y = %d, want %d (south clamp)", lat, y, max)
		}
	}
}

func TestLonClampingAtAntimeridian(t *testing.T) {
	const zoom = TileZoom
	max := (1 << zoom) - 1
	for _, lon := range []float64{180, 180.5, 359, 1e6} {
		if x, _ := LatLonToTile(0, lon, zoom); x != max {
			t.Errorf("lon %g: x = %d, want %d (east clamp)", lon, x, max)
		}
	}
	for _, lon := range []float64{-180, -180.5, -1e6} {
		if x, _ := LatLonToTile(0, lon, zoom); x != 0 {
			t.Errorf("lon %g: x = %d, want 0 (west clamp)", lon, x)
		}
	}
	// Just inside the antimeridian on each side: opposite edge tiles.
	if x, _ := LatLonToTile(0, 179.999, zoom); x != max {
		t.Errorf("lon 179.999: x = %d, want %d", x, max)
	}
	if x, _ := LatLonToTile(0, -179.999, zoom); x != 0 {
		t.Errorf("lon -179.999: x = %d, want 0", x)
	}
}

func TestZoomExtremes(t *testing.T) {
	// Zoom 0: one tile, empty quadkey, whole-world bounds.
	x, y := LatLonToTile(47.6, -122.3, 0)
	if x != 0 || y != 0 {
		t.Fatalf("zoom 0 tile = (%d,%d), want (0,0)", x, y)
	}
	if qk := TileToQuadkey(0, 0, 0); qk != "" {
		t.Fatalf("zoom-0 quadkey = %q, want empty", qk)
	}
	minLat, minLon, maxLat, maxLon := TileBounds(0, 0, 0)
	if minLon != -180 || maxLon != 180 || minLat >= -85 || maxLat <= 85 {
		t.Fatalf("zoom-0 bounds = (%g,%g)-(%g,%g)", minLat, minLon, maxLat, maxLon)
	}

	// MaxZoom: coordinates stay in range and the quadkey round-trips.
	max := (1 << MaxZoom) - 1
	for _, c := range [][2]float64{{47.6, -122.3}, {90, 180}, {-90, -180}, {0, 0}} {
		x, y := LatLonToTile(c[0], c[1], MaxZoom)
		if x < 0 || x > max || y < 0 || y > max {
			t.Fatalf("zoom-%d tile (%d,%d) outside [0,%d]", MaxZoom, x, y, max)
		}
		qk := TileToQuadkey(x, y, MaxZoom)
		if len(qk) != MaxZoom {
			t.Fatalf("quadkey %q has %d digits, want %d", qk, len(qk), MaxZoom)
		}
		rx, ry, rz, err := QuadkeyToTile(qk)
		if err != nil || rx != x || ry != y || rz != MaxZoom {
			t.Fatalf("round trip (%d,%d,%d) -> %q -> (%d,%d,%d), err %v", x, y, MaxZoom, qk, rx, ry, rz, err)
		}
	}
}

func TestParentQuadkey(t *testing.T) {
	qk := TileToQuadkey(41942, 50651, 17)
	for zoom := 0; zoom <= 17; zoom++ {
		parent, err := ParentQuadkey(qk, zoom)
		if err != nil {
			t.Fatal(err)
		}
		if parent != qk[:zoom] {
			t.Fatalf("parent at %d = %q, want %q", zoom, parent, qk[:zoom])
		}
		// The parent tile's coordinates are the child's shifted down.
		px, py, pz, err := QuadkeyToTile(parent)
		if err != nil || pz != zoom {
			t.Fatal(err)
		}
		if px != 41942>>(17-zoom) || py != 50651>>(17-zoom) {
			t.Fatalf("parent at %d = (%d,%d), want (%d,%d)", zoom, px, py, 41942>>(17-zoom), 50651>>(17-zoom))
		}
	}
	if _, err := ParentQuadkey(qk, 18); err == nil {
		t.Fatal("parent deeper than the key accepted")
	}
	if _, err := ParentQuadkey(qk, -1); err == nil {
		t.Fatal("negative parent zoom accepted")
	}
	if _, err := ParentQuadkey("0124", 2); err == nil {
		t.Fatal("invalid quadkey digit accepted")
	}
}

func TestPrefixRange(t *testing.T) {
	r, err := PrefixRange("02", 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tiles() != 16 {
		t.Fatalf("prefix 02 at zoom 4 covers %d tiles, want 16", r.Tiles())
	}
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			qk := TileToQuadkey(x, y, 4)
			inRange := r.Contains(x, y)
			hasPrefix := qk[:2] == "02"
			if inRange != hasPrefix {
				t.Fatalf("tile (%d,%d) %q: Contains=%v, prefix match=%v", x, y, qk, inRange, hasPrefix)
			}
		}
	}
	// The empty prefix covers the whole zoom.
	if r, err := PrefixRange("", 3); err != nil || r != WholeZoom(3) {
		t.Fatalf("empty prefix at zoom 3 = %+v (%v), want %+v", r, err, WholeZoom(3))
	}
	if _, err := PrefixRange("0123", 3); err == nil {
		t.Fatal("zoom above the prefix accepted")
	}
}

func TestTileRangeForBBox(t *testing.T) {
	// The bbox of a tile's own bounds covers that tile.
	x, y := LatLonToTile(47.61, -122.33, TileZoom)
	minLat, minLon, maxLat, maxLon := TileBounds(x, y, TileZoom)
	r, err := TileRangeForBBox(minLat+1e-9, minLon+1e-9, maxLat-1e-9, maxLon-1e-9, TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(x, y) || r.Tiles() != 1 {
		t.Fatalf("tight bbox range %+v does not isolate tile (%d,%d)", r, x, y)
	}
	// North latitude maps to smaller y: a taller box grows MaxY downward.
	r2, err := TileRangeForBBox(minLat-0.01, minLon, maxLat+0.01, maxLon, TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MinY >= r2.MaxY {
		t.Fatalf("taller bbox did not widen y: %+v", r2)
	}
	if _, err := TileRangeForBBox(10, 0, -10, 0, TileZoom); err == nil {
		t.Fatal("inverted bbox accepted")
	}
	if _, err := TileRangeForBBox(0, 0, 1, 1, MaxZoom+1); err == nil {
		t.Fatal("zoom above MaxZoom accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, b := range [][4]float64{
		{nan, nan, nan, nan},
		{34.3, nan, 34.5, -119.6},
		{34.3, -119.8, inf, -119.6},
		{-inf, -119.8, 34.5, -119.6},
	} {
		if r, err := TileRangeForBBox(b[0], b[1], b[2], b[3], TileZoom); err == nil {
			t.Fatalf("non-finite bbox %v accepted as %+v", b, r)
		}
	}
}

func TestParseBBox(t *testing.T) {
	want, err := TileRangeForBBox(34.3, -119.8, 34.5, -119.6, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseBBox("34.3, -119.8,34.5,-119.6", 12); err != nil || got != want {
		t.Fatalf("ParseBBox = %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range []string{
		"", "34.3,-119.8,34.5", "34.3,-119.8,34.5,-119.6,1", // field count
		"34.3,x,34.5,-119.6",                      // not a number
		"NaN,NaN,NaN,NaN", "34.3,NaN,34.5,-119.6", // NaN
		"34.3,-119.8,+Inf,-119.6", // infinite
		"34.5,-119.8,34.3,-119.6", // inverted
	} {
		if r, err := ParseBBox(bad, 12); err == nil {
			t.Errorf("ParseBBox(%q) accepted as %+v", bad, r)
		}
	}
}

func TestPackQuadkeyOrder(t *testing.T) {
	// Numeric order over packed keys equals lexicographic order over
	// quadkey strings at a fixed zoom, and the parent key is the child's
	// shifted right two bits per level.
	const zoom = 6
	type pair struct {
		k  uint64
		qk string
	}
	var all []pair
	for x := 0; x < 1<<zoom; x++ {
		for y := 0; y < 1<<zoom; y++ {
			all = append(all, pair{PackQuadkey(x, y), TileToQuadkey(x, y, zoom)})
			if px, py := UnpackQuadkey(PackQuadkey(x, y)); px != x || py != y {
				t.Fatalf("unpack(pack(%d,%d)) = (%d,%d)", x, y, px, py)
			}
			if parent := PackQuadkey(x>>2, y>>2); parent != PackQuadkey(x, y)>>4 {
				t.Fatalf("parent key mismatch at (%d,%d)", x, y)
			}
		}
	}
	byKey := append([]pair(nil), all...)
	sort.Slice(byKey, func(i, j int) bool { return byKey[i].k < byKey[j].k })
	byQK := append([]pair(nil), all...)
	sort.Slice(byQK, func(i, j int) bool { return byQK[i].qk < byQK[j].qk })
	for i := range byKey {
		if byKey[i].qk != byQK[i].qk {
			t.Fatalf("order diverges at %d: packed %q vs lexicographic %q", i, byKey[i].qk, byQK[i].qk)
		}
	}
}

func TestUserLocationStable(t *testing.T) {
	center := CityCenter("A")
	for userID := 0; userID < 1000; userID++ {
		loc := UserLocation(center, DefaultLocSeed, userID)
		if loc.Lat < center.Lat-0.1 || loc.Lat >= center.Lat+0.1 ||
			loc.Lon < center.Lon-0.1 || loc.Lon >= center.Lon+0.1 {
			t.Fatalf("user %d outside the city box: %+v", userID, loc)
		}
		if again := UserLocation(center, DefaultLocSeed, userID); again != loc {
			t.Fatalf("user %d location not stable", userID)
		}
	}
	// Different seeds move users; different users spread out.
	a := UserLocation(center, 1, 42)
	b := UserLocation(center, 2, 42)
	if a == b {
		t.Fatal("seed does not influence location")
	}
	seen := map[uint64]bool{}
	for userID := 0; userID < 100; userID++ {
		loc := UserLocation(center, DefaultLocSeed, userID)
		seen[PackQuadkey(LatLonToTile(loc.Lat, loc.Lon, TileZoom))] = true
	}
	if len(seen) < 50 {
		t.Fatalf("100 users land on only %d zoom-16 tiles", len(seen))
	}
}

func TestCityCenters(t *testing.T) {
	seen := map[uint64]bool{}
	for _, id := range []string{"A", "B", "C", "D", "E", "zz"} {
		c := CityCenter(id)
		if c.Lat < -85 || c.Lat > 85 || c.Lon < -180 || c.Lon >= 180 {
			t.Fatalf("city %q center out of range: %+v", id, c)
		}
		key := PackQuadkey(LatLonToTile(c.Lat, c.Lon, TileZoom))
		if seen[key] {
			t.Fatalf("city %q shares a tile with another center", id)
		}
		seen[key] = true
	}
	if CityCenter("A") != (geo.LatLon{Lat: 34.42, Lon: -119.70}) {
		t.Fatal("city A center moved — the aggregation-loss anchor must stay fixed")
	}
}
