package dataset

import (
	"reflect"
	"testing"
	"time"

	"speedctx/internal/plans"
	"speedctx/internal/stats"
)

// prunedFixture is snapshotFixture plus the two section kinds it lacks
// (ingest rows and sketches), so pruning is exercised against every kind.
func prunedFixture(t testing.TB) *CitySnapshot {
	t.Helper()
	snap := snapshotFixture(t)
	rows := make([]IngestRow, 64)
	base := time.Unix(1_600_000_000, 0).UTC()
	for i := range rows {
		rows[i] = IngestRow{
			TestID: i + 1, UserID: i / 4,
			City: "A", ISP: "TestNet",
			Timestamp:    base.Add(time.Duration(i) * time.Second),
			DownloadMbps: 100 + float64(i), UploadMbps: 10 + float64(i%7),
			LatencyMs: 12.5, UploadTier: i % 3, Tier: 1 + i%2,
			Confidence: 0.5 + float64(i%10)/20,
		}
	}
	snap.Ingest = ColumnizeIngest(rows)
	sk, err := stats.NewSketch(0, 1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sk.Observe(float64(i * 7 % 997))
	}
	snap.Sketches = []SketchBundle{{City: "A", Tier: UploadSketchTier, Sketch: sk}}
	return snap
}

// TestDecodePrunedMatchesFull: for a sweep of selections, every selected
// column of the pruned decode is deeply equal to the full decode's column,
// every unselected column is nil, and unselected sections are absent.
func TestDecodePrunedMatchesFull(t *testing.T) {
	snap := prunedFixture(t)
	data := encodeSnapshot(t, snap)
	full, err := DecodeCitySnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		sel  SnapshotSelection
	}{
		{"everything", SelectAll()},
		{"ookla-speeds", SnapshotSelection{Ookla: Cols(OoklaColUserID, OoklaColDownload, OoklaColUpload, OoklaColLatency)}},
		{"ookla-strings", SnapshotSelection{Ookla: Cols(OoklaColCity, OoklaColISP, OoklaColAccess)}},
		{"mlab-only", SnapshotSelection{MLab: AllColumns}},
		{"mba-single", SnapshotSelection{MBA: Cols(6)}},
		{"android-tail", SnapshotSelection{Android: Cols(OoklaColTruthTier)}},
		{"ingest-tilequery", SnapshotSelection{Ingest: Cols(IngestColUserID, IngestColCity, IngestColDownload, IngestColUpload, IngestColLatency, IngestColTier)}},
		{"sketches-only", SnapshotSelection{Sketches: true}},
		{"nothing", SnapshotSelection{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pruned, ctr, err := decodeCitySnapshotSel(data, tc.sel)
			if err != nil {
				t.Fatal(err)
			}
			checkSection(t, "ookla", tc.sel.Ookla, full.Ookla, pruned.Ookla)
			checkSection(t, "android", tc.sel.Android, full.Android, pruned.Android)
			if tc.sel.MLab == 0 && pruned.MLabRows != nil {
				t.Error("mlab section present despite zero selection")
			}
			if tc.sel.MLab != 0 && !reflect.DeepEqual(pruned.MLabRows.Speed, full.MLabRows.Speed) {
				t.Error("mlab speed column differs from full decode")
			}
			if tc.sel.MBA.Has(6) && !reflect.DeepEqual(pruned.MBA.Download, full.MBA.Download) {
				t.Error("mba download column differs from full decode")
			}
			if tc.sel.Ingest != 0 {
				if !reflect.DeepEqual(pruned.Ingest.City, full.Ingest.City) ||
					!reflect.DeepEqual(pruned.Ingest.Download, full.Ingest.Download) ||
					!reflect.DeepEqual(pruned.Ingest.Tier, full.Ingest.Tier) {
					t.Error("ingest columns differ from full decode")
				}
				if !tc.sel.Ingest.Has(IngestColISP) && (pruned.Ingest.ISP != nil || pruned.Ingest.Confidence != nil) {
					t.Error("unselected ingest columns materialized")
				}
			}
			if tc.sel.Sketches != (pruned.Sketches != nil) {
				t.Errorf("sketches present=%v, selected=%v", pruned.Sketches != nil, tc.sel.Sketches)
			}
			if tc.sel.Sketches && !reflect.DeepEqual(pruned.Sketches, full.Sketches) {
				t.Error("sketch section differs from full decode")
			}
			const totalSections, totalCols = 6, 2*16 + 11 + 10 + 11 + 8
			if ctr.SectionsDecoded+ctr.SectionsSkipped != totalSections {
				t.Errorf("sections decoded+skipped = %d+%d, want %d", ctr.SectionsDecoded, ctr.SectionsSkipped, totalSections)
			}
			if got := ctr.ColumnsDecoded + ctr.ColumnsSkipped; got != totalCols {
				t.Errorf("columns decoded+skipped = %d, want %d", got, totalCols)
			}
			if tc.name == "nothing" && (ctr.SectionsDecoded != 0 || ctr.ColumnsDecoded != 0 || ctr.BytesSkipped == 0) {
				t.Errorf("zero selection decoded something: %+v", ctr)
			}
			if tc.name == "everything" && (ctr.SectionsSkipped != 0 || ctr.ColumnsSkipped != 0 || ctr.BytesSkipped != 0) {
				t.Errorf("full selection skipped something: %+v", ctr)
			}
		})
	}
}

// checkSection compares an Ookla-codec section column by column: selected
// columns must match the full decode exactly, unselected must be nil.
func checkSection(t *testing.T, name string, sel ColumnSet, full, pruned *OoklaColumns) {
	t.Helper()
	if sel == 0 {
		if pruned != nil {
			t.Errorf("%s: section present despite zero selection", name)
		}
		return
	}
	cols := []struct {
		id           byte
		full, pruned any
	}{
		{OoklaColTestID, full.TestID, pruned.TestID},
		{OoklaColUserID, full.UserID, pruned.UserID},
		{OoklaColCity, full.City, pruned.City},
		{OoklaColISP, full.ISP, pruned.ISP},
		{OoklaColTimestamp, full.Timestamp, pruned.Timestamp},
		{OoklaColPlatform, full.Platform, pruned.Platform},
		{OoklaColAccess, full.Access, pruned.Access},
		{OoklaColHasRadioInfo, full.HasRadioInfo, pruned.HasRadioInfo},
		{OoklaColBand, full.Band, pruned.Band},
		{OoklaColRSSI, full.RSSI, pruned.RSSI},
		{OoklaColMaxTheoretical, full.MaxTheoretical, pruned.MaxTheoretical},
		{OoklaColKernelMemMB, full.KernelMemMB, pruned.KernelMemMB},
		{OoklaColDownload, full.Download, pruned.Download},
		{OoklaColUpload, full.Upload, pruned.Upload},
		{OoklaColLatency, full.Latency, pruned.Latency},
		{OoklaColTruthTier, full.TruthTier, pruned.TruthTier},
	}
	for _, c := range cols {
		if sel.Has(c.id) {
			if !reflect.DeepEqual(c.full, c.pruned) {
				t.Errorf("%s: selected column %d differs from full decode", name, c.id)
			}
		} else if !reflect.ValueOf(c.pruned).IsNil() {
			t.Errorf("%s: unselected column %d materialized", name, c.id)
		}
	}
}

// TestDecodePrunedCounters pins the pushdown arithmetic on a known layout:
// one Ookla section, two columns selected.
func TestDecodePrunedCounters(t *testing.T) {
	snap := &CitySnapshot{Ookla: ColumnizeOokla(GenerateOokla(plans.CityA(), 50, 3))}
	data := encodeSnapshot(t, snap)
	_, ctr, err := decodeCitySnapshotSel(data, SnapshotSelection{Ookla: Cols(OoklaColDownload, OoklaColUpload)})
	if err != nil {
		t.Fatal(err)
	}
	want := DecodeCounters{SectionsDecoded: 1, ColumnsDecoded: 2, ColumnsSkipped: 14, BytesSkipped: ctr.BytesSkipped}
	if ctr != want || ctr.BytesSkipped <= 0 {
		t.Fatalf("counters = %+v, want %+v with BytesSkipped > 0", ctr, want)
	}
}

// TestDecodePrunedEnvelope pins the selection-scoped integrity contract:
// corruption inside any selected column fails the pruned decode (per-block
// checksums), corruption anywhere fails the full decode (whole-file
// checksum), and version staleness is always fatal.
func TestDecodePrunedEnvelope(t *testing.T) {
	snap := &CitySnapshot{Ookla: ColumnizeOokla(GenerateOokla(plans.CityA(), 20, 4))}
	data := encodeSnapshot(t, snap)

	// Flipping every single byte must be caught whenever the byte is in the
	// pruned read set. With all columns selected (but not via SelectAll, so
	// the per-block path runs), every payload byte is in the read set;
	// structural bytes are covered by the structural checks.
	sel := SnapshotSelection{Ookla: AllColumns}
	for pos := 0; pos < len(data)-8; pos++ {
		flip := append([]byte(nil), data...)
		flip[pos] ^= 0x40
		if _, _, err := decodeCitySnapshotSel(flip, sel); err == nil {
			t.Fatalf("flipped byte at %d decoded under full column selection", pos)
		}
	}

	// Corruption outside the read set is invisible to a pruned scan — that
	// is the contract — but never to a full decode.
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x01 // lands in some Ookla column payload
	if _, _, err := decodeCitySnapshotSel(flip, SnapshotSelection{Sketches: true}); err != nil {
		t.Fatalf("corruption outside the read set failed a disjoint pruned decode: %v", err)
	}
	if _, err := DecodeCitySnapshot(flip); err == nil {
		t.Fatal("full decode accepted a corrupt image")
	}

	stale, err := encodeCitySnapshot(snap, DataVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeCitySnapshotSel(stale, SelectAll()); err == nil {
		t.Fatal("stale snapshot decoded")
	}
	if _, _, err := decodeCitySnapshotSel(stale, SnapshotSelection{}); err == nil {
		t.Fatal("stale snapshot decoded under zero selection")
	}
}

// FuzzDecodePruned: arbitrary bytes under an arbitrary selection must never
// panic, and whenever the full decode succeeds the pruned decode must
// succeed and return byte-identical columns for everything selected.
func FuzzDecodePruned(f *testing.F) {
	small := &CitySnapshot{
		Ookla: ColumnizeOokla(GenerateOokla(plans.CityA(), 8, 1)),
		MBA:   ColumnizeMBA(GenerateMBA(plans.CityC(), 2, 6, 2)),
	}
	data, err := encodeCitySnapshot(small, DataVersion)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, uint32(0), uint32(0), true)
	f.Add(data, uint32(Cols(OoklaColDownload, OoklaColUpload)), ^uint32(0), false)
	trunc := append([]byte(nil), data[:len(data)/2]...)
	f.Add(trunc, ^uint32(0), uint32(2), true)
	flip := append([]byte(nil), data...)
	flip[len(flip)/3] ^= 0xff
	f.Add(flip, uint32(6), uint32(0), false)
	f.Fuzz(func(t *testing.T, b []byte, ooklaSel, otherSel uint32, sketches bool) {
		sel := SnapshotSelection{
			Ookla: ColumnSet(ooklaSel), Android: ColumnSet(ooklaSel),
			MLab: ColumnSet(otherSel), MBA: ColumnSet(otherSel), Ingest: ColumnSet(otherSel),
			Sketches: sketches,
		}
		pruned, _, perr := decodeCitySnapshotSel(b, sel)
		full, ferr := DecodeCitySnapshot(b)
		if ferr != nil {
			return // pruned may legitimately succeed where full fails: it skips payload validation
		}
		if perr != nil {
			t.Fatalf("full decode succeeded but pruned failed: %v", perr)
		}
		if full.Ookla != nil && sel.Ookla.Has(OoklaColDownload) &&
			!reflect.DeepEqual(pruned.Ookla.Download, full.Ookla.Download) {
			t.Fatal("pruned ookla download differs from full decode")
		}
		if full.MBA != nil && sel.MBA.Has(6) && !reflect.DeepEqual(pruned.MBA.Download, full.MBA.Download) {
			t.Fatal("pruned mba download differs from full decode")
		}
		if full.Ingest != nil && sel.Ingest.Has(IngestColCity) && !reflect.DeepEqual(pruned.Ingest.City, full.Ingest.City) {
			t.Fatal("pruned ingest city differs from full decode")
		}
		if sketches && !reflect.DeepEqual(pruned.Sketches, full.Sketches) {
			t.Fatal("pruned sketches differ from full decode")
		}
	})
}
