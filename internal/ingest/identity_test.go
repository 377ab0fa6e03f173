package ingest

// The streamed-consumer identity matrix (DESIGN.md §14, §15): one
// synthesized row set, sealed through the real pipeline into {1, 3}
// segments, must give the same tiles, sketches and compacted bytes however
// it is scanned — at scan batch {1, 4096, whole file} and fold parallelism
// {1, 4, all} — as the in-memory reference computed from the rows.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
	"speedctx/internal/plans"
	"speedctx/internal/tilequery"
)

var (
	identitySplits  = []int{1, 3}
	identityBatches = []int{1, 4096, 1 << 30}
	identityPars    = []int{1, 4, 0}
)

// identityFixture is the matrix's shared input: the rows, their per-city
// sketch specs, and the in-memory tile fold every streamed fold must
// reproduce.
type identityFixture struct {
	rows  []dataset.IngestRow
	specs map[string]CitySketchSpec
	ref   *tilequery.Index
}

func newIdentityFixture(t *testing.T) *identityFixture {
	t.Helper()
	f := &identityFixture{rows: testRows(6000, 14), specs: make(map[string]CitySketchSpec)}
	ref := &tilequery.Rows{}
	for i := range f.rows {
		r := &f.rows[i]
		if _, ok := f.specs[r.City]; !ok {
			cat, ok := plans.ByCity(r.City)
			if !ok {
				t.Fatalf("no catalog for city %q", r.City)
			}
			f.specs[r.City] = CitySketchSpec{Spec: core.SketchSpecFor(cat), Tiers: len(cat.UploadTiers())}
		}
		ref.UserID = append(ref.UserID, r.UserID)
		ref.City = append(ref.City, r.City)
		ref.Download = append(ref.Download, r.DownloadMbps)
		ref.Upload = append(ref.Upload, r.UploadMbps)
		ref.Latency = append(ref.Latency, r.LatencyMs)
		ref.Tier = append(ref.Tier, r.Tier)
	}
	f.ref = tilequery.NewIndex(tilequery.Config{Parallelism: 1})
	if _, err := f.ref.AddRows(ref); err != nil {
		t.Fatal(err)
	}
	return f
}

// seal drains the rows through a pipeline that seals every
// len(rows)/split rows, and returns the fresh segment directory and its
// segment paths in name order.
func (f *identityFixture) seal(t *testing.T, split int) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	p, err := NewPipeline(PipelineConfig{
		Dir: dir, MaxBatchAge: -1, Sketches: f.specs,
		BatchRows: (len(f.rows) + split - 1) / split,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.rows {
		if err := p.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	names := segmentNames(t, dir)
	if len(names) != split {
		t.Fatalf("sealed %d segments, want %d", len(names), split)
	}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
	return dir, paths
}

// foldFiles streams each file into ix under sel and returns the row
// groups the scans scanned and skipped.
func foldFiles(t *testing.T, ix *tilequery.Index, paths []string, sel dataset.SnapshotSelection, batch int) dataset.DecodeCounters {
	t.Helper()
	var sum dataset.DecodeCounters
	for _, path := range paths {
		src, err := dataset.OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := dataset.NewBlockScanner(src, sel, batch)
		if err != nil {
			src.Close()
			t.Fatal(err)
		}
		_, err = ix.AddScan(sc)
		src.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ctr := sc.Counters()
		sum.BlocksScanned += ctr.BlocksScanned
		sum.BlocksSkipped += ctr.BlocksSkipped
	}
	return sum
}

// renderQueries renders ix's answer to each query as JSON.
func renderQueries(t *testing.T, ix *tilequery.Index, qs ...tilequery.Query) []byte {
	t.Helper()
	var out []byte
	for _, q := range qs {
		tiles, err := ix.Tiles(q)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = tilequery.AppendTilesJSON(out, q.Zoom, tiles, ""); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

var identityZooms = []tilequery.Query{{Zoom: opendata.TileZoom}, {Zoom: 12}}

// TestStreamedTilesIdentity: folding sealed segments through the tile
// layer's own projection renders the in-memory fold's bytes in every cell
// of the matrix.
func TestStreamedTilesIdentity(t *testing.T) {
	f := newIdentityFixture(t)
	want := renderQueries(t, f.ref, identityZooms...)
	for _, split := range identitySplits {
		_, paths := f.seal(t, split)
		for _, batch := range identityBatches {
			for _, par := range identityPars {
				ix := tilequery.NewIndex(tilequery.Config{Parallelism: par})
				foldFiles(t, ix, paths, tileSelection, batch)
				if got := renderQueries(t, ix, identityZooms...); !bytes.Equal(got, want) {
					t.Fatalf("split %d batch %d par %d: streamed tiles differ from the in-memory fold", split, batch, par)
				}
			}
		}
	}
}

// TestStreamedSketchesIdentity: re-binning each segment's rows through the
// sketch fallback scan and merging the segments rebuilds, bit for bit, one
// AddSample pass over every row, per city, at every split and batch.
func TestStreamedSketchesIdentity(t *testing.T) {
	f := newIdentityFixture(t)
	want := make(map[string]*core.TierSketches, len(f.specs))
	for city, spec := range f.specs {
		ts, err := core.NewTierSketches(spec.Spec, spec.Tiers)
		if err != nil {
			t.Fatal(err)
		}
		want[city] = ts
	}
	for _, r := range f.rows {
		want[r.City].AddSample(r.UploadTier, r.DownloadMbps, r.UploadMbps)
	}
	for _, split := range identitySplits {
		_, paths := f.seal(t, split)
		for _, batch := range identityBatches {
			for city, spec := range f.specs {
				merged, err := core.NewTierSketches(spec.Spec, spec.Tiers)
				if err != nil {
					t.Fatal(err)
				}
				for _, path := range paths {
					seg, err := rebinCitySamples(path, city, spec, batch)
					if err != nil {
						t.Fatal(err)
					}
					if err := merged.Merge(seg); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(merged, want[city]) {
					t.Fatalf("split %d batch %d city %s: streamed deposit differs from the AddSample pass", split, batch, city)
				}
			}
		}
	}
}

// TestRebinCitySamplesCorruptBlock: a segment whose row block fails its
// checksum makes the sketch rebin fail, not deposit a partial scan.
func TestRebinCitySamplesCorruptBlock(t *testing.T) {
	f := newIdentityFixture(t)
	_, paths := f.seal(t, 1)
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Unzoned segments store each download as its raw IEEE 754 bits, and
	// the generated speeds are unique, so this finds the download block.
	r := f.rows[len(f.rows)/2]
	at := bytes.Index(data, binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.DownloadMbps)))
	if at < 0 {
		t.Fatal("download payload not found in the segment")
	}
	data[at] ^= 0x20
	if err := os.WriteFile(paths[0], data, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, batch := range identityBatches {
		if _, err := rebinCitySamples(paths[0], r.City, f.specs[r.City], batch); err == nil ||
			!strings.Contains(err.Error(), "checksum") {
			t.Fatalf("batch %d: corrupt block gave %v, want a checksum error", batch, err)
		}
	}
}

// TestZoneMapPushdownIdentity: bbox queries over a quadkey-clustered zoned
// (v3) compaction and a canonical (v2) one, with pushdown on (zone
// predicate plus a fold restricted by Reset(range)) and off, render the
// in-memory fold's bytes at every batch and parallelism. Only the
// clustered+pushdown cells may skip row groups, and they must.
func TestZoneMapPushdownIdentity(t *testing.T) {
	f := newIdentityFixture(t)
	// City A's whole user box, then one neighbourhood whose range cuts
	// through clustered row groups, at the base zoom and rolled up.
	c := opendata.CityCenter("A")
	var queries []tilequery.Query
	for _, b := range []struct {
		lat, lon, d float64
		zoom        int
	}{
		{c.Lat, c.Lon, 0.11, opendata.TileZoom},
		{c.Lat + 0.03, c.Lon - 0.03, 0.03, opendata.TileZoom},
		{c.Lat + 0.03, c.Lon - 0.03, 0.03, 12},
	} {
		rng, err := opendata.TileRangeForBBox(b.lat-b.d, b.lon-b.d, b.lat+b.d, b.lon+b.d, b.zoom)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, tilequery.Query{Zoom: b.zoom, Range: &rng})
	}
	for _, clustered := range []bool{true, false} {
		dir, _ := f.seal(t, 3)
		opts := CompactOptions{}
		if clustered {
			opts = CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: 512}
		}
		path, err := CompactWith(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, push := range []bool{false, true} {
			cell := fmt.Sprintf("clustered=%v push=%v", clustered, push)
			var ctr dataset.DecodeCounters
			for _, q := range queries {
				want := renderQueries(t, f.ref, q)
				for _, batch := range identityBatches {
					for _, par := range identityPars {
						cfg := tilequery.Config{Parallelism: par}
						sel := tileSelection
						ix := tilequery.NewIndex(cfg)
						if push {
							sel.Predicate = cfg.Pushdown(q.Range)
							if err := ix.Reset(q.Range); err != nil {
								t.Fatal(err)
							}
						}
						got := foldFiles(t, ix, []string{path}, sel, batch)
						ctr.BlocksScanned += got.BlocksScanned
						ctr.BlocksSkipped += got.BlocksSkipped
						if !bytes.Equal(renderQueries(t, ix, q), want) {
							t.Fatalf("%s zoom %d batch %d par %d: tiles differ from the in-memory fold", cell, q.Zoom, batch, par)
						}
					}
				}
			}
			switch {
			case clustered && ctr.BlocksScanned == 0:
				t.Fatalf("%s: scan bound no zone-mapped groups", cell)
			case clustered && push && ctr.BlocksSkipped == 0:
				t.Fatalf("%s: skipped no row groups (scanned %d)", cell, ctr.BlocksScanned)
			case !(clustered && push) && ctr.BlocksSkipped > 0:
				t.Fatalf("%s: skipped %d row groups, want 0", cell, ctr.BlocksSkipped)
			}
		}
	}
}

// TestCompactBatchedIdentity: every split compacts to the same bytes at
// every scan parallelism and batch size, and the compacted file folds back
// to the in-memory tiles.
func TestCompactBatchedIdentity(t *testing.T) {
	f := newIdentityFixture(t)
	var want []byte
	for _, split := range identitySplits {
		for _, par := range identityPars {
			for _, batch := range identityBatches {
				dir, _ := f.seal(t, split)
				path, err := CompactWith(dir, CompactOptions{Par: par, BatchRows: batch})
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if want != nil {
					if !bytes.Equal(got, want) {
						t.Fatalf("split %d par %d batch %d: compacted bytes differ", split, par, batch)
					}
					continue
				}
				want = got
				ix := tilequery.NewIndex(tilequery.Config{Parallelism: 1})
				foldFiles(t, ix, []string{path}, tileSelection, 0)
				if !bytes.Equal(renderQueries(t, ix, identityZooms...), renderQueries(t, f.ref, identityZooms...)) {
					t.Fatalf("tiles folded from %s differ from the in-memory fold", CompactedName)
				}
			}
		}
	}
}
