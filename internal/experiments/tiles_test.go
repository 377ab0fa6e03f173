package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

// tileTestZooms are the zooms every snapshot tile identity test renders.
var tileTestZooms = []int{opendata.TileZoom, 12}

// newSnapshotTestSuite returns a small fast-fit suite that writes each
// city's .sxc snapshot into a temp dir, and the store that names them.
func newSnapshotTestSuite(t *testing.T) (*Suite, *dataset.SnapshotStore) {
	t.Helper()
	dir := t.TempDir()
	s := NewSuite(0.002, 2021)
	s.Parallelism = 1
	s.FastFit = true
	s.SnapshotDir = dir
	return s, &dataset.SnapshotStore{Dir: dir}
}

// appendTestTiles renders tiles at zoom onto out, failing on err.
func appendTestTiles(t *testing.T, out []byte, tiles []opendata.ContextTile, err error, zoom int) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if out, err = tilequery.AppendTilesJSON(out, zoom, tiles, ""); err != nil {
		t.Fatal(err)
	}
	return out
}

// memTilesJSON renders city's in-memory tiles (Suite.TileRows +
// Aggregate) at every tileTestZooms level, and returns the rows too.
func memTilesJSON(t *testing.T, s *Suite, city string) (*tilequery.Rows, []byte) {
	t.Helper()
	rows, err := s.TileRows(city)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, zoom := range tileTestZooms {
		tiles, err := tilequery.Aggregate(rows, tilequery.Config{City: city}, tilequery.Query{Zoom: zoom})
		out = appendTestTiles(t, out, tiles, err, zoom)
	}
	return rows, out
}

// indexTilesJSON renders ix at every tileTestZooms level.
func indexTilesJSON(t *testing.T, ix *tilequery.Index) []byte {
	t.Helper()
	var out []byte
	for _, zoom := range tileTestZooms {
		tiles, err := ix.Tiles(tilequery.Query{Zoom: zoom})
		out = appendTestTiles(t, out, tiles, err, zoom)
	}
	return out
}

// TestTileRowsSnapshotIdentity: for every seeded fixture city
// (SPEEDCTX_TEST_CITIES narrows the sweep), the tiles rendered from the
// in-memory city (Suite.TileRows) equal, byte for byte, the tiles of the
// streamed scan→classify→fold over the city's .sxc snapshot
// (StreamTileIndex), at zooms 16 and 12. The streamed scan must really
// skip the unrequested columns and sections, and a bbox pushed into a
// scan of the clustered zoned sibling must render the in-memory bbox
// tiles too. TestStreamTileIndexIdentity sweeps the scan batch size.
func TestTileRowsSnapshotIdentity(t *testing.T) {
	s, store := newSnapshotTestSuite(t)
	for _, city := range FixtureCities("A", "B") {
		t.Run("city="+city, func(t *testing.T) {
			memRows, want := memTilesJSON(t, s, city)

			// Building the bundle above wrote the snapshot through the
			// suite's store; stream it back.
			path := store.Path(dataset.SnapshotKey{City: city, Seed: s.Seed, Scale: s.Scale})
			ix, ctr, err := StreamTileIndex(path, path, city, s.BSTConfig(), 0, tilequery.Config{City: city}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := indexTilesJSON(t, ix); !bytes.Equal(got, want) {
				t.Fatalf("streamed tiles differ from in-memory tiles (%d vs %d bytes)", len(got), len(want))
			}
			if ctr.ColumnsSkipped == 0 || ctr.SectionsSkipped == 0 || ctr.BytesSkipped == 0 {
				t.Fatalf("streamed scan skipped nothing: %+v", ctr)
			}

			// Pushdown: fit from the canonical file, fold the clustered
			// sibling with a one-neighbourhood bbox pushed into the scan.
			zpath, err := ClusterSnapshot(path, opendata.TileZoom, 64)
			if err != nil {
				t.Fatal(err)
			}
			c := opendata.CityCenter(city)
			rng, err := opendata.TileRangeForBBox(c.Lat-0.03, c.Lon-0.03, c.Lat+0.03, c.Lon+0.03, opendata.TileZoom)
			if err != nil {
				t.Fatal(err)
			}
			q := tilequery.Query{Zoom: opendata.TileZoom, Range: &rng}
			memTiles, err := tilequery.Aggregate(memRows, tilequery.Config{City: city}, q)
			wantBox := appendTestTiles(t, nil, memTiles, err, q.Zoom)
			ix, ctr, err = StreamTileIndex(path, zpath, city, s.BSTConfig(), 0, tilequery.Config{City: city}, &rng)
			if err != nil {
				t.Fatal(err)
			}
			tiles, err := ix.Tiles(q)
			if got := appendTestTiles(t, nil, tiles, err, q.Zoom); !bytes.Equal(got, wantBox) {
				t.Fatalf("pushdown bbox tiles differ from in-memory bbox tiles (%d vs %d bytes)", len(got), len(wantBox))
			}
			if ctr.BlocksSkipped == 0 || ctr.BlocksScanned == 0 {
				t.Fatalf("pushdown scan scanned %d / skipped %d groups, want both > 0", ctr.BlocksScanned, ctr.BlocksSkipped)
			}
		})
	}
}

// TestAggregationTilesMatchTileRows: the tiles the aggregation-loss table
// scores come from the same fold every other tile surface serves, so they
// equal the Suite.TileRows rendering on placement, averages and counts;
// only the tier mix differs (ground truth here, BST tiers there).
func TestAggregationTilesMatchTileRows(t *testing.T) {
	s := NewSuite(0.002, 2021)
	s.Parallelism = 1
	s.FastFit = true
	got, err := s.aggregationTiles("A")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.TileRows("A")
	if err != nil {
		t.Fatal(err)
	}
	want, err := tilequery.Aggregate(rows, tilequery.Config{City: "A"}, tilequery.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d aggregation tiles, %d TileRows tiles", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.WiFi, g.Ethernet, g.TierCounts = w.WiFi, w.Ethernet, w.TierCounts
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("tile %d: aggregation %+v, TileRows %+v", i, got[i], w)
		}
	}
	for _, tc := range []struct {
		counts []int
		want   int
	}{
		{[]int{5}, 0},
		{[]int{0, 3, 3}, 1},
		{[]int{1, 2, 4, 4, 0}, 2},
		{[]int{0, 0, 1}, 2},
	} {
		if got := majorityTier(tc.counts); got != tc.want {
			t.Errorf("majorityTier(%v) = %d, want %d", tc.counts, got, tc.want)
		}
	}
}
