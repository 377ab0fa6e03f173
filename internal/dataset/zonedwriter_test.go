package dataset

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// encodeZonedWhole is the zoned section encoder from before the group
// writer, kept as its oracle: it derives every row's key and every
// group's zone entry over the whole columns, writes the zone directory,
// then appends each group's blocks through a scratch payload.
func encodeZonedWhole[S, R any](e *snapEnc, l *layout[S, R], kind byte, c *S, opts *ZoneOptions) error {
	n, err := l.rowCount(c)
	if err != nil {
		return err
	}
	city, user := l.place(c)
	keys := zoneKeys(opts.Quadkey, city, user)
	spans := zoneGroupSpans(n, opts.blockRows())
	var zb zoneDirBuilder
	zb.header(opts, len(spans))
	groups := make([]*S, len(spans))
	for i, sp := range spans {
		groups[i] = l.slice(c, sp[0], sp[1])
		zb.group(sp[1]-sp[0], keys[sp[0]:sp[1]])
		for _, f := range l.cols {
			f.zone(&zb, groups[i])
		}
	}
	e.section(kind, n)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(zb.b)))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, snapshotChecksum(zb.b))
	e.buf = append(e.buf, zb.b...)
	for _, g := range groups {
		for _, f := range l.cols {
			payload, err := f.payload(nil, g)
			if err != nil {
				return err
			}
			e.column(f.blockID(), payload)
		}
	}
	return nil
}

// wholeZonedImage is EncodeCitySnapshotZoned with every zoned section
// written by encodeZonedWhole and every plain one by the plain encoder.
func wholeZonedImage(t *testing.T, snap *CitySnapshot, opts *ZoneOptions) []byte {
	t.Helper()
	e := &snapEnc{}
	sections := 0
	for _, present := range []bool{snap.Ookla != nil, snap.MLabRows != nil, snap.MBA != nil, snap.Android != nil, snap.Ingest != nil, len(snap.Sketches) > 0} {
		if present {
			sections++
		}
	}
	e.header(SnapshotFormatVersionZoned, DataVersion, sections)
	var err error
	if snap.Ookla != nil {
		err = encodeZonedWhole(e, &ooklaLayout, snapKindOoklaZoned, snap.Ookla, opts)
	}
	if err == nil && snap.MLabRows != nil {
		err = mlabLayout.encode(e, snapKindMLab, snap.MLabRows)
	}
	if err == nil && snap.MBA != nil {
		err = mbaLayout.encode(e, snapKindMBA, snap.MBA)
	}
	if err == nil && snap.Android != nil {
		err = ooklaLayout.encode(e, snapKindAndroid, snap.Android)
	}
	if err == nil && snap.Ingest != nil {
		err = encodeZonedWhole(e, &ingestLayout, snapKindIngestZoned, snap.Ingest, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	img, err := e.finish(snap.Sketches)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestZonedWriterMatchesWholeEncoder: the group writer writes the bytes
// of the whole-column encoder for every section mix and group size,
// including a zoned section after plain ones, whose gap the writer closes
// by moving every earlier section.
func TestZonedWriterMatchesWholeEncoder(t *testing.T) {
	rows := zonedIngestRows(3000)
	SortIngestRowsClustered(rows, testZoneKey16)
	ookla := ClusterOoklaColumns(pinOoklaColumns(2500), testZoneKey16)
	full := prunedFixture(t)
	full.Ookla = ookla
	full.Ingest = ColumnizeIngest(rows)
	for _, tc := range []struct {
		name string
		snap *CitySnapshot
	}{
		{"ingest", &CitySnapshot{Ingest: ColumnizeIngest(rows)}},
		{"empty ingest", &CitySnapshot{Ingest: ColumnizeIngest(nil)}},
		{"ookla", &CitySnapshot{Ookla: ookla}},
		{"every section", full},
	} {
		for _, br := range []int{1, 7, 1000, 0} {
			opts := testZoneOptions(br)
			want := wholeZonedImage(t, tc.snap, opts)
			got, err := EncodeCitySnapshotZoned(tc.snap, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d-row groups: writer wrote %d bytes that differ from the whole encoder's %d", tc.name, br, len(got), len(want))
			}
			if tc.snap.Ookla != nil || len(tc.snap.Sketches) > 0 {
				continue
			}
			sorted := tc.snap.Ingest.Rows()
			if got, err = EncodeIngestRowsZoned(sorted, nil, opts); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s, %d-row groups: EncodeIngestRowsZoned differs from the whole encoder (err %v)", tc.name, br, err)
			}
		}
	}
}

// TestZonedWriterRejectsMisfitGroups: a group of the wrong size or with
// the wrong key count, a group past the last and a section missing a
// group all fail instead of writing a directory that disagrees with the
// rows.
func TestZonedWriterRejectsMisfitGroups(t *testing.T) {
	c := ColumnizeIngest(zonedIngestRows(10))
	keys := make([]uint64, 10)
	start := func() *zonedWriter[IngestColumns, IngestRow] {
		return newZonedWriter(&ingestLayout, &snapEnc{}, snapKindIngestZoned, 10, testZoneOptions(4), 0)
	}
	if err := start().group(ingestLayout.slice(c, 0, 3), keys[:3]); err == nil {
		t.Error("a 3-row first group of 4-row groups was accepted")
	}
	if err := start().group(ingestLayout.slice(c, 0, 4), keys[:3]); err == nil {
		t.Error("a group with 3 keys for 4 rows was accepted")
	}
	w := start()
	for _, sp := range [][2]int{{0, 4}, {4, 8}} {
		if err := w.group(ingestLayout.slice(c, sp[0], sp[1]), keys[sp[0]:sp[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err == nil {
		t.Error("a section missing its last group finished")
	}
	if err := w.group(ingestLayout.slice(c, 8, 10), keys[8:10]); err != nil {
		t.Fatal(err)
	}
	if err := w.group(ingestLayout.slice(c, 0, 0), nil); err == nil {
		t.Error("a group past the last was accepted")
	}
}

// zonedWriterBlockRows are the group sizes FuzzZonedWriter draws from.
var zonedWriterBlockRows = [...]int{1, 2, 3, 4, 5, 6, 7, 8, 9, defaultZoneBlockRows}

// fuzzIngestRows draws n rows from seed over few cities, users and test
// ids, so keys, cities and test ids tie often and duplicates occur.
func fuzzIngestRows(seed int64, n int) []IngestRow {
	rng := rand.New(rand.NewSource(seed))
	base := time.Unix(1609459200, 0).UTC()
	rows := make([]IngestRow, n)
	for i := range rows {
		if i > 0 && rng.Intn(16) == 0 {
			rows[i] = rows[rng.Intn(i)]
			continue
		}
		rows[i] = IngestRow{
			TestID: rng.Intn(n/2 + 2), UserID: rng.Intn(40) - 2,
			City: []string{"A", "B", "Springfield", ""}[rng.Intn(4)], ISP: []string{"ISP-0", "ISP-1"}[rng.Intn(2)],
			Timestamp:    base.Add(time.Duration(rng.Intn(1<<20)) * time.Second),
			DownloadMbps: float64(rng.Intn(2000)) / 2, UploadMbps: rng.Float64() * 40,
			LatencyMs: float64(rng.Intn(80)), UploadTier: rng.Intn(5) - 1, Tier: rng.Intn(7),
			Confidence: rng.Float64(),
		}
	}
	return rows
}

// FuzzZonedWriter: random rows split into random runs, each a zoned
// segment clustered at the output's zoom and seed under its own group
// size, merge through MergeIngestRuns into the bytes of one clustered sort
// of every row and the whole-column encoder, at any block size and scan
// batch size; EncodeIngestRowsZoned of the sorted rows writes the same.
func FuzzZonedWriter(f *testing.F) {
	for _, seed := range []struct {
		total       uint16
		block, runs uint8
		batch       uint8
	}{
		{0, 9, 1, 0}, {1, 9, 2, 1},
		{4095, 9, 3, 100}, {4096, 9, 1, 0}, {4097, 9, 4, 77}, {8192, 9, 5, 3},
		{2, 2, 1, 1}, {3, 2, 2, 1}, {4, 2, 2, 1}, {6, 2, 3, 2}, {8, 3, 3, 2},
		{50, 4, 6, 3}, {51, 6, 2, 4}, {100, 0, 3, 7},
	} {
		f.Add(int64(seed.total)+31, seed.total, seed.block, seed.runs, seed.batch, uint8(seed.total%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, total uint16, block, nruns, batch, flags uint8) {
		n := int(total) % (2*defaultZoneBlockRows + 2)
		rows := fuzzIngestRows(seed, n)
		opts := testZoneOptions(zonedWriterBlockRows[int(block)%len(zonedWriterBlockRows)])
		rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))

		// Split rows into runs at random cuts; each run is a clustered
		// zoned segment with its own group size.
		k := 1 + int(nruns)%6
		cuts := []int{0, n}
		for i := 1; i < k; i++ {
			cuts = append(cuts, rng.Intn(n+1))
		}
		slices.Sort(cuts)
		var runs []IngestRun
		for i := 0; i+1 < len(cuts); i++ {
			run := slices.Clone(rows[cuts[i]:cuts[i+1]])
			SortIngestRowsClustered(run, testZoneKey16)
			runOpts := testZoneOptions(zonedWriterBlockRows[rng.Intn(len(zonedWriterBlockRows))])
			img := wholeZonedImage(t, &CitySnapshot{Ingest: ColumnizeIngest(run)}, runOpts)
			d, err := ParseDirectory(byteSource(img))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, IngestRun{Name: "run", Src: byteSource(img), Dir: d})
		}

		var bundles []SketchBundle
		if flags&1 != 0 {
			bundles = []SketchBundle{{City: "A", Tier: UploadSketchTier, Sketch: synthSketch(t, 0, 100, 16, 20, seed)}}
		}
		sorted := slices.Clone(rows)
		SortIngestRowsClustered(sorted, testZoneKey16)
		want := wholeZonedImage(t, &CitySnapshot{Ingest: ColumnizeIngest(sorted), Sketches: bundles}, opts)

		got, err := MergeIngestRuns(runs, opts, int(batch)%(n+2), func(runSketches [][]SketchBundle) ([]SketchBundle, error) {
			if len(runSketches) != len(runs) {
				t.Fatalf("sketches got %d runs' bundles, want %d", len(runSketches), len(runs))
			}
			return bundles, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d rows in %d runs, %d-row groups, batch %d: merge wrote %d bytes that differ from the sorted whole encode's %d",
				n, len(runs), opts.BlockRows, batch, len(got), len(want))
		}
		if got, err = EncodeIngestRowsZoned(sorted, bundles, opts); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d rows, %d-row groups: EncodeIngestRowsZoned differs from the whole encoder (err %v)", n, opts.BlockRows, err)
		}

		// The v2 merge runs the same loop into one whole-output group.
		if flags&2 == 0 {
			return
		}
		v2 := slices.Clone(rows)
		SortIngestRows(v2)
		if want, err = EncodeIngestSegmentSketches(ColumnizeIngest(v2), bundles); err != nil {
			t.Fatal(err)
		}
		got, err = MergeIngestRuns(runs, nil, int(batch), func([][]SketchBundle) ([]SketchBundle, error) { return bundles, nil })
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d rows in %d runs: v2 merge differs from the sorted v2 encode (err %v)", n, len(runs), err)
		}
	})
}
