package opendata

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Quadkey prefix/range helpers for the tile query layer (DESIGN.md §13).
// A quadkey prefix names a rectangle of descendant tiles, and a bounding
// box names a rectangle of tiles at any zoom; both resolve to TileRange.

// MaxZoom is the deepest zoom level the quadkey math supports (the Bing
// tile system's limit; 2^23 tiles per axis).
const MaxZoom = 23

// ParentQuadkey returns the ancestor of qk at the given zoom — the tile
// whose quadkey is the length-zoom prefix. zoom must not exceed the key's
// own zoom, and the key must be well-formed.
func ParentQuadkey(qk string, zoom int) (string, error) {
	if zoom < 0 || zoom > len(qk) {
		return "", fmt.Errorf("opendata: parent zoom %d outside quadkey %q (zoom %d)", zoom, qk, len(qk))
	}
	for i := 0; i < len(qk); i++ {
		if qk[i] < '0' || qk[i] > '3' {
			return "", fmt.Errorf("opendata: invalid quadkey digit %q in %q", qk[i], qk)
		}
	}
	return qk[:zoom], nil
}

// PackQuadkey encodes tile coordinates as the integer whose base-4 digits
// are the tile's quadkey digits (y and x bits interleaved, y high). At a
// fixed zoom, numeric order over packed keys equals lexicographic order
// over quadkey strings — the property the tile query engine's sorted-merge
// reduction relies on — and the packed key of a parent tile is the child's
// key shifted right two bits per zoom level.
func PackQuadkey(x, y int) uint64 {
	return part1by1(uint64(x)) | part1by1(uint64(y))<<1
}

// UnpackQuadkey inverts PackQuadkey.
func UnpackQuadkey(k uint64) (x, y int) {
	return int(compact1by1(k)), int(compact1by1(k >> 1))
}

// part1by1 spreads the low 32 bits of v so bit i lands at position 2i.
func part1by1(v uint64) uint64 {
	v &= 0xFFFFFFFF
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// compact1by1 inverts part1by1, gathering every even bit.
func compact1by1(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0F0F0F0F0F0F0F0F
	v = (v | v>>4) & 0x00FF00FF00FF00FF
	v = (v | v>>8) & 0x0000FFFF0000FFFF
	v = (v | v>>16) & 0x00000000FFFFFFFF
	return v
}

// TileRange is an inclusive rectangle of tile coordinates at one zoom.
type TileRange struct {
	Zoom                   int
	MinX, MinY, MaxX, MaxY int
}

// Contains reports whether tile (x, y) lies in the range.
func (r TileRange) Contains(x, y int) bool {
	return x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY
}

// Tiles returns the number of tiles the range covers.
func (r TileRange) Tiles() int {
	if r.MaxX < r.MinX || r.MaxY < r.MinY {
		return 0
	}
	return (r.MaxX - r.MinX + 1) * (r.MaxY - r.MinY + 1)
}

// WholeZoom returns the range covering every tile at zoom.
func WholeZoom(zoom int) TileRange {
	max := (1 << zoom) - 1
	return TileRange{Zoom: zoom, MaxX: max, MaxY: max}
}

// TileRangeForBBox returns the tile rectangle covering a WGS84 bounding
// box at zoom. Latitudes clamp to the Web-Mercator limits and longitudes
// to [-180, 180), matching LatLonToTile; north latitude maps to the
// smaller tile y. NaN and infinite coordinates are rejected: they would
// clamp to an arbitrary edge of the world instead of naming a box.
func TileRangeForBBox(minLat, minLon, maxLat, maxLon float64, zoom int) (TileRange, error) {
	if zoom < 0 || zoom > MaxZoom {
		return TileRange{}, fmt.Errorf("opendata: zoom %d outside [0, %d]", zoom, MaxZoom)
	}
	for _, v := range [...]float64{minLat, minLon, maxLat, maxLon} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return TileRange{}, fmt.Errorf("opendata: non-finite bounding box (%g,%g)-(%g,%g)", minLat, minLon, maxLat, maxLon)
		}
	}
	if minLat > maxLat || minLon > maxLon {
		return TileRange{}, fmt.Errorf("opendata: inverted bounding box (%g,%g)-(%g,%g)", minLat, minLon, maxLat, maxLon)
	}
	minX, minY := LatLonToTile(maxLat, minLon, zoom)
	maxX, maxY := LatLonToTile(minLat, maxLon, zoom)
	return TileRange{Zoom: zoom, MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}, nil
}

// ParseBBox parses a "minLat,minLon,maxLat,maxLon" bounding box and
// returns the tile rectangle covering it at zoom (see TileRangeForBBox).
func ParseBBox(s string, zoom int) (TileRange, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return TileRange{}, fmt.Errorf("opendata: bbox %q wants minLat,minLon,maxLat,maxLon", s)
	}
	var f [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return TileRange{}, fmt.Errorf("opendata: bad bbox coordinate %q", p)
		}
		f[i] = v
	}
	return TileRangeForBBox(f[0], f[1], f[2], f[3], zoom)
}

// PrefixRange returns the rectangle of tiles at zoom whose quadkeys start
// with prefix — the descendants of the prefix tile. zoom must be at least
// the prefix's own zoom.
func PrefixRange(prefix string, zoom int) (TileRange, error) {
	if zoom < len(prefix) || zoom > MaxZoom {
		return TileRange{}, fmt.Errorf("opendata: prefix %q needs zoom in [%d, %d], got %d", prefix, len(prefix), MaxZoom, zoom)
	}
	x, y, pz, err := QuadkeyToTile(prefix)
	if err != nil {
		return TileRange{}, err
	}
	shift := zoom - pz
	return TileRange{
		Zoom: zoom,
		MinX: x << shift, MinY: y << shift,
		MaxX: (x+1)<<shift - 1, MaxY: (y+1)<<shift - 1,
	}, nil
}
