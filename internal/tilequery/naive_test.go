package tilequery

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
)

// naiveTiles is the straightforward implementation of the contextualized
// tile aggregation this package replaces: one pass over the rows with the
// location hash and Web-Mercator projection recomputed per row, string
// quadkeys as map keys, roll-up by quadkey-string prefix, sort at the end.
// It is deliberately engine-free — no per-user memo, no packed keys —
// and serves two jobs: the full-decode benchmark baseline
// (what answering a tile query cost before this layer existed), and an
// independent oracle the engine's output must match byte-for-byte.
func naiveTiles(rows *Rows, cfg Config, zoom int) []opendata.ContextTile {
	type acc struct {
		sumD, sumU, sumLat int64
		tests, wifi, eth   int
		tiers              []int
		devices            map[int]struct{}
	}
	byKey := map[string]*acc{}
	for i := 0; i < rows.Len(); i++ {
		city := cfg.City
		if rows.City != nil {
			city = rows.City[i]
		}
		loc := opendata.UserLocation(opendata.CityCenter(city), opendata.DefaultLocSeed, rows.UserID[i])
		x, y := opendata.LatLonToTile(loc.Lat, loc.Lon, opendata.TileZoom)
		key := opendata.TileToQuadkey(x, y, opendata.TileZoom)[:zoom]
		a := byKey[key]
		if a == nil {
			a = &acc{devices: map[int]struct{}{}}
			byKey[key] = a
		}
		a.sumD += int64(math.Round(rows.Download[i] * 1000))
		a.sumU += int64(math.Round(rows.Upload[i] * 1000))
		if rows.Latency != nil {
			a.sumLat += int64(math.Round(rows.Latency[i] * 1000))
		}
		a.tests++
		if rows.Access != nil {
			switch rows.Access[i] {
			case dataset.AccessWiFi:
				a.wifi++
			case dataset.AccessEthernet:
				a.eth++
			}
		}
		if rows.Tier != nil {
			t := rows.Tier[i]
			for t >= len(a.tiers) {
				a.tiers = append(a.tiers, 0)
			}
			a.tiers[t]++
		}
		a.devices[rows.UserID[i]] = struct{}{}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]opendata.ContextTile, 0, len(keys))
	for _, k := range keys {
		a := byKey[k]
		tiers := a.tiers
		for len(tiers) > 0 && tiers[len(tiers)-1] == 0 {
			tiers = tiers[:len(tiers)-1]
		}
		t := opendata.ContextTile{
			Quadkey:  k,
			AvgDKbps: int(a.sumD / int64(a.tests)),
			AvgUKbps: int(a.sumU / int64(a.tests)),
			AvgLatMs: int(a.sumLat / int64(a.tests) / 1000),
			Tests:    a.tests,
			Devices:  len(a.devices),
			WiFi:     a.wifi,
			Ethernet: a.eth,
		}
		if len(tiers) > 0 {
			t.TierCounts = append([]int(nil), tiers...)
		}
		out = append(out, t)
	}
	return out
}

// TestNaiveOracle pins the memoized engine to the naive reference
// implementation: identical rendered bytes at the base zoom and a roll-up
// zoom, for one batch far above any scanner batch. This is what licenses
// the benchmark's full-vs-pruned ratio as a like-for-like comparison.
func TestNaiveOracle(t *testing.T) {
	rows := synthRows(3*bigBatch+101, "A", "B")
	cfg := Config{}
	for _, zoom := range []int{opendata.TileZoom, 11} {
		want, err := AppendTilesJSON(nil, zoom, naiveTiles(rows, cfg, zoom), "")
		if err != nil {
			t.Fatal(err)
		}
		tiles, err := Aggregate(rows, cfg, Query{Zoom: zoom})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendTilesJSON(nil, zoom, tiles, "")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("zoom %d: engine diverges from naive reference (%d vs %d bytes)",
				zoom, len(got), len(want))
		}
	}
}

// TestNaiveOracleSparseUsers repeats the oracle comparison with user ids
// outside the dense memo range (huge and negative), forcing the fold's
// sparse fallback: placement and device counting must not depend on which
// memo representation a user landed in.
func TestNaiveOracleSparseUsers(t *testing.T) {
	rows := synthRows(20_000, "A")
	for i := range rows.UserID {
		switch i % 3 {
		case 0:
			rows.UserID[i] += denseUserCap + 1_000_000
		case 1:
			rows.UserID[i] = -rows.UserID[i] - 1
		}
	}
	cfg := Config{}
	want, err := AppendTilesJSON(nil, opendata.TileZoom, naiveTiles(rows, cfg, opendata.TileZoom), "")
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := Aggregate(rows, cfg, Query{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendTilesJSON(nil, opendata.TileZoom, tiles, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sparse-user fold diverges from naive reference")
	}
}
