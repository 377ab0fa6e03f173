package ingest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"testing"

	"speedctx/internal/opendata"
)

// Byte pins of the write path: a sealed segment and a compacted store.
// TestCompactMergeMatchesSort checks CompactWith against a sort followed
// by EncodeIngestSegmentZoned, so a fault both share would pass it; these
// hashes hold the bytes themselves. A pin moves only with a change that
// means to change the file format, said so in CHANGES.md.
//
// The hashes are recorded on linux/amd64. The quadkey derivation and the
// sketch binning are float code that other architectures may round
// differently, so there the tests log the hashes and skip only the
// comparison.

func checkPin(t *testing.T, name string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	if runtime.GOARCH != "amd64" {
		t.Logf("%s: hash %s (pins are recorded on amd64; not compared on %s)", name, got, runtime.GOARCH)
		return
	}
	if got != want {
		t.Errorf("%s: %d bytes hash to %s, pinned %s", name, len(data), got, want)
	}
}

// TestSealPinned pins one sealed segment of 20,000 rows (five zone
// groups), with and without sketch bundles.
func TestSealPinned(t *testing.T) {
	const (
		wantPlain    = "5b078d7a3d81fedc8468d9421ad5424f585580a47a812b019fd90b10dc9a36be"
		wantSketches = "737b48d83f82e98e890acbcef4d08d742b31db6627219560eb97d32e13b20bc5"
	)
	rows := testRows(20000, 47)
	for _, tc := range []struct {
		name     string
		sketches bool
		want     string
	}{
		{"no sketches", false, wantPlain},
		{"sketches", true, wantSketches},
	} {
		f := newCompactFixture(t, rows)
		if !tc.sketches {
			f.p.cfg.Sketches = nil
		}
		f.seal(rows)
		data, err := os.ReadFile(f.p.segmentPath(0))
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, tc.name, data, tc.want)
	}
}

// TestCompactPinned pins the store CompactWith writes over a directory of
// sealed runs of uneven sizes plus an earlier compaction, clustered at
// opendata.TileZoom and unclustered.
func TestCompactPinned(t *testing.T) {
	const (
		wantZoned = "26f04dd691bd155555d492a1df1272516f14d8bc9c70e15941c8fb7bb6638ede"
		wantV2    = "69f8875543bc82ea203812ac45b8173edf8327a1b29f20f7f9703294d7491091"
	)
	rows := testRows(20000, 53)
	for _, tc := range []struct {
		zoom int
		want string
	}{
		{opendata.TileZoom, wantZoned},
		{0, wantV2},
	} {
		f := newCompactFixture(t, rows)
		f.seal(rows[:3000])
		f.seal(rows[3000:9000])
		if _, err := CompactWith(f.dir, CompactOptions{ClusterZoom: tc.zoom}); err != nil {
			t.Fatal(err)
		}
		f.seal(rows[9000:9001])
		f.seal(rows[9001:15000])
		f.seal(rows[15000:])
		path, err := CompactWith(f.dir, CompactOptions{ClusterZoom: tc.zoom})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, fmt.Sprintf("zoom %d", tc.zoom), data, tc.want)
	}
}
