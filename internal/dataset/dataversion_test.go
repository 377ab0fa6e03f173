package dataset

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"speedctx/internal/stats"
)

// Byte images of a sealed ingest segment (rows plus a sketch section,
// format v2) and of a clustered compacted store (zoned, format v3), both
// encoded at data version 2 before generated-data changes moved to
// GeneratorVersion. Live ingest directories hold exactly these kinds of
// files, so they must keep scanning.
const (
	dv2SegmentHex = "535843310200020205030103e188d67e406a75df0202020203dd2eb2b676ca278e0e0403" +
		"0308305b13554273c2530201410142000001040a6dc7452568fa38f301054953502d3100" +
		"00000508d0291015de85de86008098f3fe0b78780618e86c4fc68f4719d2000000000000" +
		"49400000000000003e40000000000000004007189ea2a3d80cf524c60000000000004940" +
		"0000000000002440000000000000f03f0818dde84e75611e358400000000000018400000" +
		"000000002440000000000000f03f090315f128a2896acb850201040a036d933d3f5df38d" +
		"df0401040b183421c3c9e170da03000000000000e03f000000000000d03f000000000000" +
		"e03f0601010430ab6b839a4b0116010141000201956bccd4b8bfaf98020301956bccd4b8" +
		"bfaf98020401f2a9152a2e3e37bf0405014873aab338ee6741080608b435d36595291092" +
		"00000000000000000708008ba961114fae8000000000000059400810944b47681c4c8b1a" +
		"9ab3e6cc01e6cc99b3168080808008005f08e0e743b09223"
	dv2ZonedHex = "53584331030002020803a40287b27ba322a1a9cc010c0e02028782010201ffffffffffff" +
		"ef3f010000000000004001ffffffffffff1b400100000000002240000000010000000000" +
		"003e40000000000000494001000000000000244000000000000049400100000000000018" +
		"400000000000002440010100000000000080010000000000f03f01ffffffffffffef3f01" +
		"0000000000004001000000000000d03f000000000000e03f018784010001ffffffffffff" +
		"0740010000000000084001ffffffffffff1b400100000000001c40000000010000000000" +
		"000040000000000000004001000000000000f03f000000000000f03f01000000000000f0" +
		"3f000000000000f03f01ffffffffffffff3f010000000000004001ffffffffffff074001" +
		"0000000000084001000000000000e03f000000000000e03f0102541a19b36be038e70202" +
		"02023ec01c1f67a612630e040305ff389182c0ea8874010141000004098c38a1c293810e" +
		"6101054953502d31000005078a3ceb1c0120a994008098f3fe0b780610eccb38354262ba" +
		"0f00000000000049400000000000003e4007109f4936b28263368d000000000000494000" +
		"0000000000244008108a82ffe559b9f42800000000000018400000000000002440090247" +
		"51e8a85b5cdfbd02010a026ba92343cbf49de304010b10d50cf7db27353c7e0000000000" +
		"00e03f000000000000d03f010141ae6e9a8bbb34bb06020134ceeae3977812f20e0304d5" +
		"beeb973d60d373010142000408ce11186117edc0ba01054953502d31000506aba84d131f" +
		"83d63b00f099f3fe0b0608fbdb4fdd84781d62000000000000004007082bdcc5ed7691ab" +
		"f8000000000000f03f08082bdcc5ed7691abf8000000000000f03f0901f2a9152a2e3e37" +
		"bf040a0141ae6e9a8bbb34bb060b08b1afc69a0e8be145000000000000e03f0601010430" +
		"ab6b839a4b0116010141000201956bccd4b8bfaf98020301956bccd4b8bfaf98020401f2" +
		"a9152a2e3e37bf0405014873aab338ee6741080608b435d3659529109200000000000000" +
		"000708008ba961114fae8000000000000059400810944b47681c4c8b1a9ab3e6cc01e6cc" +
		"99b316808080800800864e79f1b9aace74"
)

// dv2Sketches is the one sketch bundle both images carry.
func dv2Sketches(t *testing.T) []SketchBundle {
	t.Helper()
	sk, err := stats.NewSketch(0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	sk.Add([]float64{50, 30})
	return []SketchBundle{{City: "A", Tier: 1, Sketch: sk}}
}

// dv2Quadkey is the zone key the zoned image was clustered under.
func dv2Quadkey(city string, uid int) uint64 { return uint64(city[0])<<8 | uint64(uid) }

// TestDataVersion2SegmentsStillScan is the regression gate for ingest
// stores across a generator bump: segments and compacted stores written at
// data version 2 scan back to their rows and sketches, and today's
// encoders still write the same bytes for them.
func TestDataVersion2SegmentsStillScan(t *testing.T) {
	rows := v2IngestFixtureRows()
	clustered := append([]IngestRow(nil), rows...)
	SortIngestRowsClustered(clustered, dv2Quadkey)
	bundles := dv2Sketches(t)
	zo := &ZoneOptions{BlockRows: 2, Zoom: 12, LocSeed: 7, Quadkey: dv2Quadkey}

	for _, c := range []struct {
		name   string
		hex    string
		rows   []IngestRow
		encode func() ([]byte, error)
	}{
		{"segment", dv2SegmentHex, rows, func() ([]byte, error) {
			return EncodeIngestSegmentSketches(ColumnizeIngest(rows), bundles)
		}},
		{"zoned", dv2ZonedHex, clustered, func() ([]byte, error) {
			return EncodeIngestSegmentZoned(ColumnizeIngest(clustered), bundles, zo)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			data, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := DecodeCitySnapshot(data)
			if err != nil {
				t.Fatalf("data-version-2 %s no longer scans: %v", c.name, err)
			}
			if snap.Ingest == nil || !reflect.DeepEqual(snap.Ingest.Rows(), c.rows) {
				t.Fatalf("%s scanned to different rows", c.name)
			}
			if len(snap.Sketches) != 1 || snap.Sketches[0].City != "A" || snap.Sketches[0].Tier != 1 ||
				!reflect.DeepEqual(snap.Sketches[0].Sketch.MassView(), bundles[0].Sketch.MassView()) {
				t.Fatalf("%s scanned to different sketches", c.name)
			}
			again, err := c.encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%s encode drifted from the data-version-2 image:\n got %s",
					c.name, hex.EncodeToString(again))
			}
		})
	}
}
