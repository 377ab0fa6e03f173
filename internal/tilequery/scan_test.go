package tilequery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
)

// scanFixtureBytes encodes a snapshot carrying an Ookla section and an
// ingest section, so AddScan is exercised over both row-view mappings.
func scanFixtureBytes(t *testing.T, n int) []byte {
	t.Helper()
	rows := make([]dataset.IngestRow, n)
	base := benchOokla(n, 0x5CA7)
	for i := range rows {
		h := mixT(uint64(i) ^ 0xF01D)
		city := "A"
		if h%3 == 0 {
			city = "B"
		}
		rows[i] = dataset.IngestRow{
			TestID: i, UserID: int(h % 500), City: city, ISP: "ISP-alpha",
			Timestamp:    base.Timestamp[i],
			DownloadMbps: base.Download[i], UploadMbps: base.Upload[i],
			LatencyMs:  base.Latency[i],
			UploadTier: int(h % 4), Tier: int(h % 5), Confidence: 0.5,
		}
	}
	dataset.SortIngestRows(rows)
	snap := &dataset.CitySnapshot{Ookla: base, Ingest: dataset.ColumnizeIngest(rows)}
	dir := t.TempDir()
	store := &dataset.SnapshotStore{Dir: dir}
	key := dataset.SnapshotKey{City: "A", Seed: 9, Scale: 1}
	if err := store.Save(key, snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wholeSection drains a scan of data under sel in whole-section batches —
// the materialized pruned decode — and returns the last section's batch
// with the scan's counters. sel must name a single row section.
func wholeSection(tb testing.TB, data []byte, sel dataset.SnapshotSelection) (dataset.ColumnsBatch, dataset.DecodeCounters) {
	tb.Helper()
	sc, err := dataset.NewBlockScanner(dataset.BytesSource(data), sel, 1<<30)
	if err != nil {
		tb.Fatal(err)
	}
	var b dataset.ColumnsBatch
	for sc.Scan() {
		b = *sc.Batch()
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return b, sc.Counters()
}

func renderIxJSON(t *testing.T, ix *Index) []byte {
	t.Helper()
	var out []byte
	for _, zoom := range []int{opendata.TileZoom, 12} {
		tiles, err := ix.Tiles(Query{Zoom: zoom})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := AppendTilesJSON(nil, zoom, tiles, "")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf...)
	}
	return out
}

// TestAddScanMatchesAddRows: folding a snapshot through the block scanner
// at any batch size renders byte-identical tiles to
// folding the materialized whole-section scan, for both the Ookla and the
// ingest row-view mappings.
func TestAddScanMatchesAddRows(t *testing.T) {
	const n = 5000
	data := scanFixtureBytes(t, n)
	sels := map[string]dataset.SnapshotSelection{
		"ookla": {Ookla: dataset.Cols(
			dataset.OoklaColUserID, dataset.OoklaColAccess,
			dataset.OoklaColDownload, dataset.OoklaColUpload,
			dataset.OoklaColLatency,
		)},
		"ingest": {Ingest: dataset.Cols(
			dataset.IngestColUserID, dataset.IngestColCity,
			dataset.IngestColDownload, dataset.IngestColUpload,
			dataset.IngestColLatency, dataset.IngestColTier,
		)},
	}
	for name, sel := range sels {
		t.Run(name, func(t *testing.T) {
			cfg := Config{City: "A"}
			snap, _ := wholeSection(t, data, sel)
			ref := NewIndex(cfg)
			var refRows *Rows
			if name == "ookla" {
				o := snap.Ookla
				refRows = &Rows{UserID: o.UserID, Download: o.Download,
					Upload: o.Upload, Latency: o.Latency, Access: o.Access}
			} else {
				g := snap.Ingest
				refRows = &Rows{UserID: g.UserID, City: g.City, Download: g.Download,
					Upload: g.Upload, Latency: g.Latency, Tier: g.Tier}
			}
			refTouched, err := ref.AddRows(refRows)
			if err != nil {
				t.Fatal(err)
			}
			want := renderIxJSON(t, ref)

			for _, batch := range []int{1, 97, 4096, 1 << 30} {
				sc, err := dataset.NewBlockScanner(dataset.BytesSource(data), sel, batch)
				if err != nil {
					t.Fatal(err)
				}
				ix := NewIndex(cfg)
				touched, err := ix.AddScan(sc)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if touched < refTouched {
					t.Fatalf("batch %d: %d touches < materialized fold's %d", batch, touched, refTouched)
				}
				if got := renderIxJSON(t, ix); !bytes.Equal(got, want) {
					t.Fatalf("batch %d: streamed tiles differ from materialized fold", batch)
				}
			}
		})
	}
}

// TestEngineAddScanFile streams from an on-disk file through the engine
// wrapper and checks the rendering against the in-memory streamed fold.
func TestEngineAddScanFile(t *testing.T) {
	data := scanFixtureBytes(t, 3000)
	path := filepath.Join(t.TempDir(), "seg.sxc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sel := dataset.SnapshotSelection{Ingest: dataset.Cols(
		dataset.IngestColUserID, dataset.IngestColCity,
		dataset.IngestColDownload, dataset.IngestColUpload,
		dataset.IngestColLatency, dataset.IngestColTier,
	)}

	sc, err := dataset.NewBlockScanner(dataset.BytesSource(data), sel, 512)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewIndex(Config{City: "A"})
	if _, err := ref.AddScan(sc); err != nil {
		t.Fatal(err)
	}
	want := renderIxJSON(t, ref)

	src, err := dataset.OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fsc, err := dataset.NewBlockScanner(src, sel, 777)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Config{City: "A"}, 0)
	if err := eng.AddScan(fsc); err != nil {
		t.Fatal(err)
	}
	tiles, err := eng.Tiles(Query{Zoom: opendata.TileZoom})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendTilesJSON(nil, opendata.TileZoom, tiles, "")
	if err != nil {
		t.Fatal(err)
	}
	tiles12, err := eng.Tiles(Query{Zoom: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got, err = AppendTilesJSON(got, 12, tiles12, ""); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("file-backed engine scan differs from in-memory streamed fold")
	}
}

// TestRowsViewUnmappedKind: sections without a tile mapping surface a
// clear error instead of silently dropping rows.
func TestRowsViewUnmappedKind(t *testing.T) {
	if _, err := RowsView(&dataset.ColumnsBatch{Kind: dataset.SectionMLab}); err == nil {
		t.Fatal("want error for MLab batch")
	}
}
