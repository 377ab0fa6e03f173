package opendata

import (
	"math/rand"
	"testing"
)

// Predicate-construction edge cases for pushdown (DESIGN.md §15): the
// quadkey interval a TileRange pushes down must stay a conservative
// superset of the rectangle at the poles, at the antimeridian, and for
// degenerate zero-area boxes.

func TestZonePredicateSupersetProperty(t *testing.T) {
	// Every tile inside a random rectangle packs into the pushed-down
	// interval — the predicate can over-match, never under-match.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		zoom := 4 + rng.Intn(6)
		n := 1 << zoom
		x0, y0 := rng.Intn(n), rng.Intn(n)
		r := TileRange{
			Zoom: zoom,
			MinX: x0, MinY: y0,
			MaxX: x0 + rng.Intn(n-x0), MaxY: y0 + rng.Intn(n-y0),
		}
		p := r.ZonePredicate()
		q := p.Quadkey
		if q == nil || q.Zoom != zoom || q.LocSeed != DefaultLocSeed {
			t.Fatalf("trial %d: malformed predicate %+v", trial, q)
		}
		for i := 0; i < 50; i++ {
			x := r.MinX + rng.Intn(r.MaxX-r.MinX+1)
			y := r.MinY + rng.Intn(r.MaxY-r.MinY+1)
			k := PackQuadkey(x, y)
			if k < q.Min || k > q.Max {
				t.Fatalf("trial %d: tile (%d,%d) in range %+v packs outside [%d,%d]",
					trial, x, y, r, q.Min, q.Max)
			}
		}
	}
}

func TestZonePredicatePoleClamping(t *testing.T) {
	// A bbox reaching past the Web-Mercator cutoffs clamps to the edge
	// rows; the resulting predicate still covers every representable tile
	// of the clamped rectangle.
	r, err := TileRangeForBBox(84, -1, 90, 1, TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	if r.MinY != 0 {
		t.Fatalf("north-pole bbox should clamp MinY to 0, got %+v", r)
	}
	p := r.ZonePredicate()
	for _, xy := range [][2]int{{r.MinX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY}, {r.MaxX, r.MinY}} {
		if k := PackQuadkey(xy[0], xy[1]); k < p.Quadkey.Min || k > p.Quadkey.Max {
			t.Fatalf("corner tile %v outside predicate interval", xy)
		}
	}
	s, err := TileRangeForBBox(-90, -1, -84, 1, TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxY != (1<<TileZoom)-1 {
		t.Fatalf("south-pole bbox should clamp MaxY to the last row, got %+v", s)
	}
}

func TestZonePredicateAntimeridian(t *testing.T) {
	// Longitudes are not wrapped: a bbox "crossing" the antimeridian
	// (minLon > maxLon) is rejected as inverted rather than silently
	// producing a predicate that skips matching rows. Callers split such
	// queries into two east/west boxes.
	if _, err := TileRangeForBBox(-10, 170, 10, -170, TileZoom); err == nil {
		t.Fatal("antimeridian-crossing bbox accepted; it must be rejected as inverted")
	}
	// The two halves of a split antimeridian query clamp to the opposite
	// world edges and each produce a valid predicate.
	east, err := TileRangeForBBox(-10, 170, 10, 180, TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	west, err := TileRangeForBBox(-10, -180, 10, -170, TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	if east.MaxX != (1<<TileZoom)-1 || west.MinX != 0 {
		t.Fatalf("split halves not clamped to world edges: east %+v west %+v", east, west)
	}
	pe, pw := east.ZonePredicate(), west.ZonePredicate()
	if pe.Quadkey.Min > pe.Quadkey.Max || pw.Quadkey.Min > pw.Quadkey.Max {
		t.Fatal("split-half predicate interval inverted")
	}
}

func TestZonePredicateZeroArea(t *testing.T) {
	// A zero-area (point) bbox isolates the single containing tile and its
	// predicate interval degenerates to that one packed key.
	c := CityCenter("A")
	r, err := TileRangeForBBox(c.Lat, c.Lon, c.Lat, c.Lon, TileZoom)
	if err != nil {
		t.Fatal(err)
	}
	if r.Tiles() != 1 {
		t.Fatalf("point bbox covers %d tiles, want 1", r.Tiles())
	}
	p := r.ZonePredicate()
	x, y := LatLonToTile(c.Lat, c.Lon, TileZoom)
	if k := PackQuadkey(x, y); p.Quadkey.Min != k || p.Quadkey.Max != k {
		t.Fatalf("point predicate [%d,%d], want the single key %d", p.Quadkey.Min, p.Quadkey.Max, k)
	}
}

func TestZoneQuadkeyMatchesTilePlacement(t *testing.T) {
	// The key a zoned encoder records is the same placement the tile
	// query layer computes — the invariant pushdown correctness rests on.
	key := ZoneQuadkey(TileZoom)
	for userID := 0; userID < 200; userID++ {
		for _, city := range []string{"A", "B", "C", "D"} {
			loc := UserLocation(CityCenter(city), DefaultLocSeed, userID)
			x, y := LatLonToTile(loc.Lat, loc.Lon, TileZoom)
			if got := key(city, userID); got != PackQuadkey(x, y) {
				t.Fatalf("city %s user %d: zone key %d != placement key %d", city, userID, got, PackQuadkey(x, y))
			}
		}
	}
}
