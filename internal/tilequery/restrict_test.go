package tilequery

import (
	"bytes"
	"math/rand"
	"testing"

	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
)

// restrictQueries draws bbox queries over ix's tiles: random rectangles
// around occupied tiles at every zoom in [1, base], a random rectangle
// anywhere, plus the empty range, a single base tile and the whole world.
// (Zoom 0 is not addressable: Query.Zoom 0 means the base zoom.)
func restrictQueries(ix *Index, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	keys := ix.sortedKeys()
	base := ix.Zoom()
	var qs []Query
	add := func(r opendata.TileRange) { qs = append(qs, Query{Zoom: r.Zoom, Range: &r}) }
	for z := 1; z <= base; z++ {
		last := 1<<z - 1
		for i := 0; i < 2; i++ {
			x, y := opendata.UnpackQuadkey(keys[rng.Intn(len(keys))] >> (2 * uint(base-z)))
			add(opendata.TileRange{Zoom: z,
				MinX: max(0, x-rng.Intn(4)), MaxX: min(last, x+rng.Intn(4)),
				MinY: max(0, y-rng.Intn(4)), MaxY: min(last, y+rng.Intn(4))})
		}
		x, y := rng.Intn(last+1), rng.Intn(last+1)
		add(opendata.TileRange{Zoom: z, MinX: x, MaxX: min(last, x+rng.Intn(8)), MinY: y, MaxY: min(last, y+rng.Intn(8))})
		add(opendata.WholeZoom(z))
	}
	x, y := opendata.UnpackQuadkey(keys[rng.Intn(len(keys))])
	add(opendata.TileRange{Zoom: base, MinX: x, MaxX: x, MinY: y, MaxY: y})
	add(opendata.TileRange{Zoom: base, MinX: 1, MaxX: 0, MinY: 1, MaxY: 0})
	return qs
}

// answer renders ix's response to q.
func answer(t *testing.T, ix *Index, q Query) []byte {
	t.Helper()
	tiles, err := ix.Tiles(q)
	if err != nil {
		t.Fatal(err)
	}
	return renderJSON(t, tiles, q.Zoom)
}

// checkRestricted folds rows into a fresh index per query, restricted to
// the query's range, and requires the unrestricted reference's bytes, a
// row split that adds up, and — across one reused index reset for every
// query — the same bytes again.
func checkRestricted(t *testing.T, name string, ref *Index, qs []Query, fold func(*Index) error) {
	t.Helper()
	reused := NewIndex(ref.cfg)
	dropped := 0 // queries whose answer is non-empty yet whose fold dropped rows
	for i, q := range qs {
		want := answer(t, ref, q)
		fresh := NewIndex(ref.cfg)
		for _, ix := range []*Index{fresh, reused} {
			if err := ix.Reset(q.Range); err != nil {
				t.Fatal(err)
			}
			if err := fold(ix); err != nil {
				t.Fatalf("%s query %d: %v", name, i, err)
			}
			if got := answer(t, ix, q); !bytes.Equal(got, want) {
				t.Fatalf("%s query %d (%+v): restricted fold renders different bytes", name, i, *q.Range)
			}
			if got := ix.RowCount() + ix.FilteredRows(); got != ref.RowCount() {
				t.Fatalf("%s query %d: folded %d + filtered %d != %d rows", name, i, ix.RowCount(), ix.FilteredRows(), ref.RowCount())
			}
		}
		if fresh.TileCount() > 0 && fresh.FilteredRows() > 0 {
			dropped++
		}
		// Between restricted queries the reused index also serves an
		// unrestricted fold, so its memo sees Reset(nil) too.
		if i%5 == 0 {
			if err := reused.Reset(nil); err != nil {
				t.Fatal(err)
			}
			if err := fold(reused); err != nil {
				t.Fatal(err)
			}
			if got, want := answer(t, reused, Query{Zoom: 12}), answer(t, ref, Query{Zoom: 12}); !bytes.Equal(got, want) {
				t.Fatalf("%s: unrestricted refold after query %d renders different bytes", name, i)
			}
		}
	}
	if dropped == 0 {
		t.Fatalf("%s: no query both answered tiles and dropped rows", name)
	}
}

// TestRestrictedFoldMatchesUnrestricted: a fold restricted to a query's
// range renders byte-identical tiles to an unrestricted fold of the same
// rows, through every AddRows path and through AddScan at any batch size.
func TestRestrictedFoldMatchesUnrestricted(t *testing.T) {
	t.Run("AddRows/single-chunk", func(t *testing.T) {
		rows := synthRows(20_000, "A", "B")
		ref := NewIndex(Config{Parallelism: 1})
		if _, err := ref.AddRows(rows); err != nil {
			t.Fatal(err)
		}
		checkRestricted(t, "single-chunk", ref, restrictQueries(ref, 1), func(ix *Index) error {
			_, err := ix.AddRows(rows)
			return err
		})
	})

	t.Run("AddRows/multi-chunk", func(t *testing.T) {
		rows := synthRows(aggChunkRows+aggChunkRows/3, "A", "B")
		ref := NewIndex(Config{Parallelism: 1})
		if _, err := ref.AddRows(rows); err != nil {
			t.Fatal(err)
		}
		// Every fourth query keeps the matrix small under -race while still
		// covering coarse and base zooms and the special ranges.
		var qs []Query
		all := restrictQueries(ref, 2)
		for i := range all {
			if i%4 == 0 || i >= len(all)-2 {
				qs = append(qs, all[i])
			}
		}
		for _, par := range []int{1, 4} {
			ref.cfg.Parallelism = par
			checkRestricted(t, "multi-chunk", ref, qs, func(ix *Index) error {
				_, err := ix.AddRows(rows)
				return err
			})
		}
	})

	t.Run("AddScan", func(t *testing.T) {
		data := scanFixtureBytes(t, 3000)
		sel := dataset.SnapshotSelection{Ingest: dataset.Cols(
			dataset.IngestColUserID, dataset.IngestColCity,
			dataset.IngestColDownload, dataset.IngestColUpload,
			dataset.IngestColLatency, dataset.IngestColTier,
		)}
		scan := func(ix *Index, batch int) error {
			sc, err := dataset.NewBlockScanner(dataset.BytesSource(data), sel, batch)
			if err != nil {
				return err
			}
			_, err = ix.AddScan(sc)
			return err
		}
		ref := NewIndex(Config{City: "A"})
		if err := scan(ref, 0); err != nil {
			t.Fatal(err)
		}
		qs := restrictQueries(ref, 3)
		for _, batch := range []int{1, 4096, 1 << 30} {
			checkRestricted(t, "scan", ref, qs, func(ix *Index) error { return scan(ix, batch) })
		}
	})
}

// TestRestrictedTilesMismatch: a restricted index refuses any query whose
// range is not exactly its restriction, and Reset refuses a restriction
// finer than the base zoom.
func TestRestrictedTilesMismatch(t *testing.T) {
	ix := NewIndex(Config{})
	r := opendata.TileRange{Zoom: 12, MinX: 10, MaxX: 20, MinY: 10, MaxY: 20}
	if err := ix.Reset(&r); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AddRows(synthRows(1000, "A")); err != nil {
		t.Fatal(err)
	}
	same := r
	if _, err := ix.Tiles(Query{Zoom: 12, Range: &same}); err != nil {
		t.Fatalf("equal range refused: %v", err)
	}
	wider := r
	wider.MaxX++
	whole := opendata.WholeZoom(12)
	for _, q := range []Query{{Zoom: 12}, {Zoom: 12, Range: &wider}, {Zoom: 12, Range: &whole}} {
		if _, err := ix.Tiles(q); err == nil {
			t.Fatalf("query %+v on an index restricted to %+v: want error", q, r)
		}
	}
	fine := opendata.TileRange{Zoom: ix.Zoom() + 1}
	if err := ix.Reset(&fine); err == nil {
		t.Fatal("restriction finer than the base zoom: want error")
	}
}
