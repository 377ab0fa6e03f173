package experiments

import (
	"bytes"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/tilequery"
)

// TestStreamTileIndexIdentity: the two-pass streamed scan→classify→fold
// renders tiles byte-identical to the in-memory Suite.TileRows +
// Aggregate path at every scan batch size, and its decode counters do not
// depend on it.
func TestStreamTileIndexIdentity(t *testing.T) {
	s, store := newSnapshotTestSuite(t)
	const city = "A"
	_, want := memTilesJSON(t, s, city)
	path := store.Path(dataset.SnapshotKey{City: city, Seed: s.Seed, Scale: s.Scale})

	var firstCtr dataset.DecodeCounters
	for _, batch := range []int{1, 4096, 1 << 30} {
		ix, ctr, err := StreamTileIndex(path, path, city, s.BSTConfig(), batch,
			tilequery.Config{City: city}, nil)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if got := indexTilesJSON(t, ix); !bytes.Equal(got, want) {
			t.Fatalf("batch %d: streamed tiles differ from in-memory tiles (%d vs %d bytes)", batch, len(got), len(want))
		}
		if firstCtr == (dataset.DecodeCounters{}) {
			firstCtr = ctr
		} else if ctr != firstCtr {
			t.Fatalf("batch %d: counters %+v, want %+v", batch, ctr, firstCtr)
		}
	}
}
