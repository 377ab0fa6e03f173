package opendata

import (
	"encoding/csv"
	"io"
	"strconv"
	"strings"

	"speedctx/internal/geo"
)

// ContextTile is one row of the contextualized aggregate schema the tile
// query layer serves (DESIGN.md §13): the open-data columns plus the
// context the paper argues raw tiles strip — the BST plan-tier mix and the
// WiFi-versus-ethernet split. All averages are integer-exact: they are
// integer divisions of int64 sums of per-row rounded integer units (kbps
// for speeds, microseconds for latency), so a tile's row is a pure
// function of its row multiset — independent of row order, parallelism,
// cache state and which segments the rows arrived in.
type ContextTile struct {
	Quadkey  string
	AvgDKbps int
	AvgUKbps int
	AvgLatMs int
	Tests    int
	Devices  int
	// WiFi and Ethernet count tests by access type (rows with unknown or
	// absent access context count in neither).
	WiFi     int
	Ethernet int
	// TierCounts[t] counts tests assigned plan tier t (0 = unassigned),
	// with trailing zeros trimmed; nil when the rows carried no tier
	// context.
	TierCounts []int
}

// AppendJSON renders the tile as a JSON object appended to dst. The
// rendering is hand-rolled (strconv appends, fixed field order) so the
// serving path allocates nothing per tile and the bytes are identical for
// identical aggregates.
func (t *ContextTile) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"quadkey":"`...)
	dst = append(dst, t.Quadkey...)
	dst = append(dst, `","avg_d_kbps":`...)
	dst = strconv.AppendInt(dst, int64(t.AvgDKbps), 10)
	dst = append(dst, `,"avg_u_kbps":`...)
	dst = strconv.AppendInt(dst, int64(t.AvgUKbps), 10)
	dst = append(dst, `,"avg_lat_ms":`...)
	dst = strconv.AppendInt(dst, int64(t.AvgLatMs), 10)
	dst = append(dst, `,"tests":`...)
	dst = strconv.AppendInt(dst, int64(t.Tests), 10)
	dst = append(dst, `,"devices":`...)
	dst = strconv.AppendInt(dst, int64(t.Devices), 10)
	dst = append(dst, `,"wifi":`...)
	dst = strconv.AppendInt(dst, int64(t.WiFi), 10)
	dst = append(dst, `,"ethernet":`...)
	dst = strconv.AppendInt(dst, int64(t.Ethernet), 10)
	dst = append(dst, `,"tier_counts":[`...)
	for i, n := range t.TierCounts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	dst = append(dst, ']', '}')
	return dst
}

var contextTileHeader = []string{
	"quadkey", "avg_d_kbps", "avg_u_kbps", "avg_lat_ms",
	"tests", "devices", "wifi", "ethernet", "tier_counts",
}

// WriteContextTilesCSV writes contextualized tiles in an open-data-style
// CSV schema. The tier mix renders as "tier:count" pairs joined by "|"
// (zero counts omitted), e.g. "1:12|2:5".
func WriteContextTilesCSV(w io.Writer, tiles []ContextTile) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(contextTileHeader); err != nil {
		return err
	}
	var sb strings.Builder
	for i := range tiles {
		t := &tiles[i]
		sb.Reset()
		for tier, n := range t.TierCounts {
			if n == 0 {
				continue
			}
			if sb.Len() > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(strconv.Itoa(tier))
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(n))
		}
		row := []string{
			t.Quadkey,
			strconv.Itoa(t.AvgDKbps), strconv.Itoa(t.AvgUKbps), strconv.Itoa(t.AvgLatMs),
			strconv.Itoa(t.Tests), strconv.Itoa(t.Devices),
			strconv.Itoa(t.WiFi), strconv.Itoa(t.Ethernet),
			sb.String(),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DefaultLocSeed is the location-derivation seed of every tile placement:
// the tile fold, the zone keys a clustered compaction records and the
// predicate a bbox query pushes down all use it, so every reader places a
// subscriber on the same tile.
const DefaultLocSeed = 5

// CityCenter returns the fixed pseudo-center of a study city — the anchor
// around which UserLocation spreads its subscribers. City A's center
// matches the coordinate the aggregation-loss experiment has always used;
// unknown city ids hash to a stable mid-latitude point so distinct cities
// never collide on one tile.
func CityCenter(id string) geo.LatLon {
	switch id {
	case "A":
		return geo.LatLon{Lat: 34.42, Lon: -119.70}
	case "B":
		return geo.LatLon{Lat: 35.08, Lon: -106.65}
	case "C":
		return geo.LatLon{Lat: 36.15, Lon: -86.78}
	case "D":
		return geo.LatLon{Lat: 35.22, Lon: -80.84}
	}
	h := mix64(1469598103934665603 ^ uint64(len(id)))
	for i := 0; i < len(id); i++ {
		h = mix64(h ^ uint64(id[i]))
	}
	u1 := unit(h)
	u2 := unit(mix64(h + 0x9E3779B97F4A7C15))
	return geo.LatLon{Lat: -55 + u1*110, Lon: -180 + u2*360}
}

// UserLocation derives a subscriber's stable pseudo-location: a point in
// the ±0.1° city-sized box around center, keyed by (seed, userID) through
// a counter-based hash. Unlike a sequential RNG (whose placements would
// depend on first-seen record order), the hash makes a user's location
// independent of row order and of which subset of their tests a reader
// scans — the property that lets snapshot scans, in-memory
// generation and incremental segment folds land every test in the same
// tile.
func UserLocation(center geo.LatLon, seed int64, userID int) geo.LatLon {
	h := mix64(mix64(uint64(seed)) ^ uint64(int64(userID)))
	u1 := unit(h)
	u2 := unit(mix64(h + 0x9E3779B97F4A7C15))
	return geo.LatLon{
		Lat: center.Lat + (u1-0.5)*0.2,
		Lon: center.Lon + (u2-0.5)*0.2,
	}
}

// mix64 is the SplitMix64 finalizer — the same mixer the per-subscriber
// generation streams build on.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// unit maps a hash to [0, 1) with 53 significant bits.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
