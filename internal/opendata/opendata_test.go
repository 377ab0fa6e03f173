package opendata

import (
	"testing"
	"testing/quick"
)

func TestQuadkeyKnownValues(t *testing.T) {
	// Bing tile system documentation examples (zoom 3).
	cases := []struct {
		x, y int
		want string
	}{
		{0, 0, "000"}, {1, 0, "001"}, {0, 1, "002"}, {1, 1, "003"},
		{7, 7, "333"}, {3, 5, "213"},
	}
	for _, c := range cases {
		if got := TileToQuadkey(c.x, c.y, 3); got != c.want {
			t.Errorf("TileToQuadkey(%d,%d,3) = %q, want %q", c.x, c.y, got, c.want)
		}
	}
}

func TestQuadkeyRoundTrip(t *testing.T) {
	f := func(xr, yr uint16) bool {
		x, y := int(xr)%65536, int(yr)%65536
		qk := TileToQuadkey(x, y, TileZoom)
		if len(qk) != TileZoom {
			return false
		}
		gx, gy, zoom, err := QuadkeyToTile(qk)
		return err == nil && gx == x && gy == y && zoom == TileZoom
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuadkeyInvalid(t *testing.T) {
	if _, _, _, err := QuadkeyToTile("01x2"); err == nil {
		t.Error("invalid digit should error")
	}
}

func TestLatLonToTileSeattle(t *testing.T) {
	// Bing docs: (47.61, -122.33) at zoom 3 -> tile (1, 2), quadkey 021.
	x, y := LatLonToTile(47.61, -122.33, 3)
	if x != 1 || y != 2 {
		t.Errorf("tile = (%d, %d), want (1, 2)", x, y)
	}
	if qk := TileToQuadkey(x, y, 3); qk != "021" {
		t.Errorf("quadkey = %q, want 021", qk)
	}
}

func TestLatLonClamping(t *testing.T) {
	// Poles and antimeridian must stay in range.
	for _, c := range [][2]float64{{90, 0}, {-90, 0}, {0, 180}, {0, -180}, {91, 999}} {
		x, y := LatLonToTile(c[0], c[1], TileZoom)
		max := 1<<TileZoom - 1
		if x < 0 || x > max || y < 0 || y > max {
			t.Errorf("tile out of range for %v: (%d, %d)", c, x, y)
		}
	}
}

func TestTileBoundsContainPoint(t *testing.T) {
	lat, lon := 34.42, -119.70
	x, y := LatLonToTile(lat, lon, TileZoom)
	minLat, minLon, maxLat, maxLon := TileBounds(x, y, TileZoom)
	if !(minLat <= lat && lat <= maxLat && minLon <= lon && lon <= maxLon) {
		t.Errorf("point (%v,%v) outside its tile bounds [%v..%v, %v..%v]",
			lat, lon, minLat, maxLat, minLon, maxLon)
	}
	// Zoom-16 tiles are small: well under 0.01 degrees.
	if maxLat-minLat > 0.01 || maxLon-minLon > 0.01 {
		t.Errorf("tile too large: %v x %v degrees", maxLat-minLat, maxLon-minLon)
	}
}
