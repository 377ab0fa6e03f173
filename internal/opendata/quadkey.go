// Package opendata implements Ookla's public open-data tile format: speed
// test results aggregated into zoom-16 Web Mercator tiles addressed by
// quadkeys (the format of github.com/teamookla/ookla-open-data, which the
// paper cites as Ookla's public aggregate release).
//
// The package exists to make a point the paper argues (§8): aggregated
// tiles strip the per-measurement context BST needs. It holds the tile
// geometry and the ContextTile schema; internal/tilequery folds per-test
// rows into tiles, and the experiments package shows tier recovery
// collapsing on them.
package opendata

import (
	"fmt"
	"math"
	"strings"
)

// TileZoom is the zoom level Ookla's open data uses.
const TileZoom = 16

// LatLonToTile converts WGS84 coordinates to Web Mercator tile x/y at the
// given zoom (standard slippy-map math).
func LatLonToTile(lat, lon float64, zoom int) (x, y int) {
	n := float64(int(1) << zoom)
	lat = clampLat(lat)
	lon = clampLon(lon)
	x = int(math.Floor((lon + 180) / 360 * n))
	latRad := lat * math.Pi / 180
	y = int(math.Floor((1 - math.Log(math.Tan(latRad)+1/math.Cos(latRad))/math.Pi) / 2 * n))
	max := int(n) - 1
	if x < 0 {
		x = 0
	}
	if x > max {
		x = max
	}
	if y < 0 {
		y = 0
	}
	if y > max {
		y = max
	}
	return x, y
}

func clampLat(lat float64) float64 {
	// Web Mercator's valid latitude range.
	const limit = 85.05112878
	return math.Max(-limit, math.Min(limit, lat))
}

func clampLon(lon float64) float64 {
	return math.Max(-180, math.Min(179.999999, lon))
}

// TileToQuadkey encodes tile coordinates as a quadkey string (Bing Maps
// tile system): one base-4 digit per zoom level, interleaving the x and y
// bits most-significant first.
func TileToQuadkey(x, y, zoom int) string {
	var b strings.Builder
	for i := zoom; i > 0; i-- {
		digit := byte('0')
		mask := 1 << (i - 1)
		if x&mask != 0 {
			digit++
		}
		if y&mask != 0 {
			digit += 2
		}
		b.WriteByte(digit)
	}
	return b.String()
}

// QuadkeyToTile decodes a quadkey back to tile coordinates and zoom.
func QuadkeyToTile(qk string) (x, y, zoom int, err error) {
	zoom = len(qk)
	for i := zoom; i > 0; i-- {
		mask := 1 << (i - 1)
		switch qk[zoom-i] {
		case '0':
		case '1':
			x |= mask
		case '2':
			y |= mask
		case '3':
			x |= mask
			y |= mask
		default:
			return 0, 0, 0, fmt.Errorf("opendata: invalid quadkey digit %q in %q", qk[zoom-i], qk)
		}
	}
	return x, y, zoom, nil
}

// TileBounds returns the WGS84 bounding box of a tile.
func TileBounds(x, y, zoom int) (minLat, minLon, maxLat, maxLon float64) {
	n := float64(int(1) << zoom)
	minLon = float64(x)/n*360 - 180
	maxLon = float64(x+1)/n*360 - 180
	maxLat = tileLat(float64(y), n)
	minLat = tileLat(float64(y+1), n)
	return minLat, minLon, maxLat, maxLon
}

func tileLat(y, n float64) float64 {
	t := math.Pi - 2*math.Pi*y/n
	return 180 / math.Pi * math.Atan(0.5*(math.Exp(t)-math.Exp(-t)))
}
