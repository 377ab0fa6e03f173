package opendata

import "speedctx/internal/dataset"

// Zone-map wiring (DESIGN.md §15). The dataset layer stores and checks
// quadkey zone maps but does not know how rows map to tiles — that
// derivation (city center, hashed user location, slippy-map math) lives
// here, so this file provides the canonical glue: the Quadkey function
// zoned encoders record, and the predicate a TileRange pushes down.

// ZoneQuadkey returns the canonical (city, userID) → packed-quadkey
// derivation at zoom: the same placement the tile query layer uses
// (UserLocation around CityCenter under DefaultLocSeed, then
// LatLonToTile), so a file's zone ranges and a query's tile range speak
// the same key space.
func ZoneQuadkey(zoom int) func(city string, userID int) uint64 {
	return func(city string, userID int) uint64 {
		loc := UserLocation(CityCenter(city), DefaultLocSeed, userID)
		x, y := LatLonToTile(loc.Lat, loc.Lon, zoom)
		return PackQuadkey(x, y)
	}
}

// NewZoneOptions builds the canonical zoned-encoding options: zoom <= 0
// defaults to TileZoom, blockRows <= 0 to the dataset layer's default
// row-group size. These options are part of a zoned file's canonical
// identity (same rows + same options ⇒ same bytes), so tools that must
// agree on compacted bytes must agree on them.
func NewZoneOptions(zoom, blockRows int) *dataset.ZoneOptions {
	if zoom <= 0 {
		zoom = TileZoom
	}
	return &dataset.ZoneOptions{
		BlockRows: blockRows,
		Zoom:      zoom,
		LocSeed:   DefaultLocSeed,
		Quadkey:   ZoneQuadkey(zoom),
	}
}

// ZonePredicate converts the tile rectangle into a scan predicate over
// packed quadkeys at the range's zoom. Packed keys are monotone in each
// tile coordinate, so every tile of the rectangle packs into
// [Pack(MinX,MinY), Pack(MaxX,MaxY)] — the interval is a superset of the
// rectangle (it can admit keys outside it), which is exactly the
// conservative direction pushdown needs: a group is only skipped when no
// row can fall in the rectangle. The predicate names DefaultLocSeed; the
// scanner ignores it on a file whose zone maps record another seed, so
// such a file is read whole rather than misread.
func (r TileRange) ZonePredicate() *dataset.ScanPredicate {
	return &dataset.ScanPredicate{Quadkey: &dataset.QuadkeyRange{
		Zoom:    r.Zoom,
		Min:     PackQuadkey(r.MinX, r.MinY),
		Max:     PackQuadkey(r.MaxX, r.MaxY),
		LocSeed: DefaultLocSeed,
	}}
}
