package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"speedctx/internal/stats"
)

func synthSketch(t *testing.T, lo, hi float64, bins, n int, seed int64) *stats.Sketch {
	t.Helper()
	s, err := stats.NewSketch(lo, hi, bins)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s.Observe(lo + rng.Float64()*(hi-lo)*1.1) // some clamped tail mass
	}
	return s
}

func TestSketchSectionRoundTrip(t *testing.T) {
	bundles := []SketchBundle{
		{City: "A", Tier: UploadSketchTier, Sketch: synthSketch(t, 0, 140, 512, 900, 1)},
		{City: "A", Tier: 0, Sketch: synthSketch(t, 0, 4800, 512, 500, 2)},
		{City: "A", Tier: 1, Sketch: synthSketch(t, 0, 4800, 512, 0, 3)}, // empty sketch persists too
		{City: "B", Tier: UploadSketchTier, Sketch: synthSketch(t, 0, 170, 256, 300, 4)},
	}
	rows := synthIngestRows(50, 9)
	buf, err := EncodeIngestSegmentSketches(ColumnizeIngest(rows), bundles)
	if err != nil {
		t.Fatal(err)
	}
	// Byte determinism: re-encoding the same snapshot is identical.
	buf2, err := EncodeIngestSegmentSketches(ColumnizeIngest(rows), bundles)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("sketch segment encoding is not deterministic")
	}

	snap, err := DecodeCitySnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ingest == nil || snap.Ingest.Len() != len(rows) {
		t.Fatal("ingest section lost alongside sketches")
	}
	if len(snap.Sketches) != len(bundles) {
		t.Fatalf("decoded %d bundles, want %d", len(snap.Sketches), len(bundles))
	}
	for i, got := range snap.Sketches {
		want := bundles[i]
		if got.City != want.City || got.Tier != want.Tier {
			t.Fatalf("bundle %d = (%s,%d), want (%s,%d)", i, got.City, got.Tier, want.City, want.Tier)
		}
		if got.Sketch.Count() != want.Sketch.Count() ||
			got.Sketch.Lo() != want.Sketch.Lo() || got.Sketch.Hi() != want.Sketch.Hi() ||
			!reflect.DeepEqual(got.Sketch.MassView(), want.Sketch.MassView()) {
			t.Fatalf("bundle %d sketch does not round-trip", i)
		}
		// The decoded sketch is live: merging it back into a clone of the
		// original doubles the mass exactly.
		m := want.Sketch.Clone()
		if err := m.Merge(got.Sketch); err != nil {
			t.Fatal(err)
		}
		if m.Count() != 2*want.Sketch.Count() {
			t.Fatalf("bundle %d merge count = %d", i, m.Count())
		}
	}

	// A plain segment (no sketches) still decodes with an empty bundle list.
	plain, err := EncodeIngestSegment(ColumnizeIngest(rows))
	if err != nil {
		t.Fatal(err)
	}
	snap, err = DecodeCitySnapshot(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sketches) != 0 {
		t.Fatalf("plain segment decoded %d sketch bundles", len(snap.Sketches))
	}
}

// TestSketchSectionStaleVersion fabricates a snapshot whose sketch rows
// carry a foreign SketchVersion and checks decoding reports staleness (the
// recoverable cache-miss error), not corruption.
func TestSketchSectionStaleVersion(t *testing.T) {
	sk := synthSketch(t, 0, 100, 64, 40, 5)
	e := &snapEnc{}
	e.buf = append(e.buf, snapshotMagic[:]...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, SnapshotFormatVersion)
	e.buf = binary.AppendUvarint(e.buf, DataVersion)
	e.buf = append(e.buf, 1) // one section
	e.section(snapKindSketch, 1)
	e.column(1, appendStrings(nil, []string{"A"}))
	e.column(2, appendDeltaInts(nil, []int{UploadSketchTier}))
	e.column(3, appendDeltaInts(nil, []int{stats.SketchVersion + 1}))
	e.column(4, appendDeltaInts(nil, []int{sk.Count()}))
	e.column(5, appendDeltaInts(nil, []int{sk.Bins()}))
	e.column(6, appendFloats(nil, []float64{sk.Lo()}))
	e.column(7, appendFloats(nil, []float64{sk.Hi()}))
	masses := []byte(nil)
	for _, u := range sk.MassView() {
		masses = binary.AppendUvarint(masses, u)
	}
	e.column(8, masses)
	img := binary.LittleEndian.AppendUint64(e.buf, snapshotChecksum(e.buf))

	_, err := DecodeCitySnapshot(img)
	if !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("foreign sketch version error = %v, want ErrSnapshotStale", err)
	}
}

// TestSketchSectionRejectsCorruption checks the defensive decode paths: a
// bin count that cannot fit the payload, and trailing mass bytes.
func TestSketchSectionRejectsCorruption(t *testing.T) {
	sk := synthSketch(t, 0, 100, 64, 40, 6)
	encode := func(bins int, extraMass []byte) []byte {
		e := &snapEnc{}
		e.buf = append(e.buf, snapshotMagic[:]...)
		e.buf = binary.LittleEndian.AppendUint16(e.buf, SnapshotFormatVersion)
		e.buf = binary.AppendUvarint(e.buf, DataVersion)
		e.buf = append(e.buf, 1)
		e.section(snapKindSketch, 1)
		e.column(1, appendStrings(nil, []string{"A"}))
		e.column(2, appendDeltaInts(nil, []int{UploadSketchTier}))
		e.column(3, appendDeltaInts(nil, []int{stats.SketchVersion}))
		e.column(4, appendDeltaInts(nil, []int{sk.Count()}))
		e.column(5, appendDeltaInts(nil, []int{bins}))
		e.column(6, appendFloats(nil, []float64{sk.Lo()}))
		e.column(7, appendFloats(nil, []float64{sk.Hi()}))
		masses := []byte(nil)
		for _, u := range sk.MassView() {
			masses = binary.AppendUvarint(masses, u)
		}
		masses = append(masses, extraMass...)
		e.column(8, masses)
		return binary.LittleEndian.AppendUint64(e.buf, snapshotChecksum(e.buf))
	}
	if _, err := DecodeCitySnapshot(encode(1<<30, nil)); err == nil {
		t.Fatal("oversized bin count accepted")
	}
	if _, err := DecodeCitySnapshot(encode(sk.Bins(), []byte{7})); err == nil {
		t.Fatal("trailing mass bytes accepted")
	}
}

// TestSketchSectionFixedBlocksFailClosed damages each of the sketch
// section's fixed blocks 1–7 in turn. The full decode over memory and a
// streamed scan over a file must both return an error, never panic or
// yield the section's bundles.
func TestSketchSectionFixedBlocksFailClosed(t *testing.T) {
	sk := synthSketch(t, 0, 100, 64, 40, 7)
	const rows = 2
	encode := func(block int, payload []byte) []byte {
		blocks := [][]byte{
			appendStrings(nil, []string{"A", "B"}),
			appendDeltaInts(nil, []int{UploadSketchTier, 0}),
			appendDeltaInts(nil, []int{stats.SketchVersion, stats.SketchVersion}),
			appendDeltaInts(nil, []int{sk.Count(), sk.Count()}),
			appendDeltaInts(nil, []int{sk.Bins(), sk.Bins()}),
			appendFloats(nil, []float64{sk.Lo(), sk.Lo()}),
			appendFloats(nil, []float64{sk.Hi(), sk.Hi()}),
		}
		if block > 0 {
			blocks[block-1] = payload
		}
		e := &snapEnc{}
		e.header(SnapshotFormatVersion, DataVersion, 1)
		e.section(snapKindSketch, rows)
		for i, p := range blocks {
			e.column(byte(i+1), p)
		}
		var masses []byte
		for r := 0; r < rows; r++ {
			for _, u := range sk.MassView() {
				masses = binary.AppendUvarint(masses, u)
			}
		}
		e.column(8, masses)
		return binary.LittleEndian.AppendUint64(e.buf, snapshotChecksum(e.buf))
	}
	scanFile := func(img []byte) ([]SketchBundle, error) {
		path := filepath.Join(t.TempDir(), "s.sxc")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		sc, err := NewBlockScanner(src, SnapshotSelection{Sketches: true}, 0)
		if err != nil {
			return nil, err
		}
		var got []SketchBundle
		for sc.Scan() {
			got = append(got, sc.Batch().Sketches...)
		}
		return got, sc.Err()
	}

	// The undamaged image decodes both ways, so each case below fails on
	// its damage alone.
	img := encode(0, nil)
	if snap, err := DecodeCitySnapshot(img); err != nil || len(snap.Sketches) != rows {
		t.Fatalf("undamaged section: %v", err)
	}
	if got, err := scanFile(img); err != nil || len(got) != rows {
		t.Fatalf("undamaged section, file scan: %d bundles, %v", len(got), err)
	}

	short := func(p []byte) []byte { return p[:len(p)-1] }
	cases := []struct {
		name    string
		block   int
		payload []byte
	}{
		{"dictionary index past its names", 1, []byte{1, 1, 'A', 0, 1}},
		{"dictionary size past the block", 1, []byte{9, 1, 'A', 0, 0}},
		{"dictionary entry past the block", 1, []byte{1, 9, 'A', 0, 0}},
		{"tier ints fewer bytes than rows", 2, []byte{0}},
		{"tier ints bad varint", 2, []byte{0x80, 0x80}},
		{"version ints fewer bytes than rows", 3, []byte{0}},
		{"count ints fewer bytes than rows", 4, []byte{0}},
		{"bins ints fewer bytes than rows", 5, []byte{0}},
		{"lo floats one byte short", 6, short(appendFloats(nil, []float64{sk.Lo(), sk.Lo()}))},
		{"hi floats one byte short", 7, short(appendFloats(nil, []float64{sk.Hi(), sk.Hi()}))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := encode(tc.block, tc.payload)
			if snap, err := DecodeCitySnapshot(img); err == nil {
				t.Fatalf("decode accepted the damaged block %d: %d bundles", tc.block, len(snap.Sketches))
			}
			if got, err := scanFile(img); err == nil || len(got) != 0 {
				t.Fatalf("file scan of the damaged block %d: %d bundles, err %v", tc.block, len(got), err)
			}
		})
	}
}
