package tilequery

import (
	"bytes"
	"math/rand"
	"testing"

	"speedctx/internal/opendata"
)

// sliceRows returns rows [lo, hi) of r as a view.
func sliceRows(r *Rows, lo, hi int) *Rows {
	return &Rows{
		UserID: r.UserID[lo:hi], City: r.City[lo:hi],
		Download: r.Download[lo:hi], Upload: r.Upload[lo:hi],
		Latency: r.Latency[lo:hi], Tier: r.Tier[lo:hi], Access: r.Access[lo:hi],
	}
}

// appendRows appends every row of src to dst.
func appendRows(dst, src *Rows) {
	dst.UserID = append(dst.UserID, src.UserID...)
	dst.City = append(dst.City, src.City...)
	dst.Download = append(dst.Download, src.Download...)
	dst.Upload = append(dst.Upload, src.Upload...)
	dst.Latency = append(dst.Latency, src.Latency...)
	dst.Tier = append(dst.Tier, src.Tier...)
	dst.Access = append(dst.Access, src.Access...)
}

// touchedTiles counts the distinct base tiles rows land on inside r (nil =
// everywhere), placing each row afresh the way naiveTiles does: the
// reference for the touched count AddRows reports.
func touchedTiles(rows *Rows, r *opendata.TileRange) int {
	seen := map[[2]int]bool{}
	for i := 0; i < rows.Len(); i++ {
		loc := opendata.UserLocation(opendata.CityCenter(rows.City[i]), opendata.DefaultLocSeed, rows.UserID[i])
		x, y := opendata.LatLonToTile(loc.Lat, loc.Lon, opendata.TileZoom)
		if r != nil {
			if s := uint(opendata.TileZoom - r.Zoom); !r.Contains(x>>s, y>>s) {
				continue
			}
		}
		seen[[2]int{x, y}] = true
	}
	return len(seen)
}

// TestEpochFoldProperty runs random sequences of Reset(nil | range),
// AddRows batches of 1…bigBatch rows (users repeat across batches, and
// some ids take the sparse memo path) and one batch of more than bigBatch
// rows against one index. Every batch folds straight into the index's
// tiles through a memo whose accumulators live for the Reset epoch, so at
// the end of every epoch the index must render the bytes a one-shot
// Aggregate of the epoch's rows renders, and every call's touched count
// must equal the distinct base tiles that call's rows land on.
func TestEpochFoldProperty(t *testing.T) {
	pool := synthRows(bigBatch+bigBatch/4, "A", "B")
	for i := range pool.UserID {
		if i%7 == 0 {
			pool.UserID[i] += denseUserCap + 1_000
		}
	}
	cfg := Config{}
	ref := NewIndex(cfg)
	if _, err := ref.AddRows(pool); err != nil {
		t.Fatal(err)
	}
	ranges := restrictQueries(ref, 7)

	rng := rand.New(rand.NewSource(23))
	ix := NewIndex(cfg)
	var (
		restrict *opendata.TileRange
		epoch    = &Rows{}
	)
	check := func(seq int) {
		t.Helper()
		q := Query{Zoom: 12}
		if restrict != nil {
			q = Query{Zoom: restrict.Zoom, Range: restrict}
		}
		want, err := Aggregate(epoch, cfg, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Tiles(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderJSON(t, got, q.Zoom), renderJSON(t, want, q.Zoom)) {
			t.Fatalf("sequence %d: epoch of %d rows under %+v renders other bytes than a one-shot Aggregate", seq, epoch.Len(), restrict)
		}
		if ix.RowCount()+ix.FilteredRows() != epoch.Len() {
			t.Fatalf("sequence %d: folded %d + filtered %d rows, epoch holds %d", seq, ix.RowCount(), ix.FilteredRows(), epoch.Len())
		}
	}
	var resets, restricted, big int
	for seq := 0; seq < 6; seq++ {
		bigDone := false
		for step := 0; step < 8; step++ {
			switch k := rng.Intn(6); {
			case k == 0:
				check(seq)
				restrict = nil
				if rng.Intn(3) > 0 {
					r := *ranges[rng.Intn(len(ranges))].Range
					restrict = &r
				}
				if err := ix.Reset(restrict); err != nil {
					t.Fatal(err)
				}
				epoch = &Rows{}
				resets++
				if restrict != nil {
					restricted++
				}
			default:
				n := 1 + rng.Intn(bigBatch)
				if k == 1 && !bigDone {
					n, bigDone = bigBatch+1+rng.Intn(bigBatch/4-1), true
					big++
				} else if rng.Intn(2) == 0 {
					n = 1 + rng.Intn(64)
				}
				lo := rng.Intn(pool.Len() - n + 1)
				batch := sliceRows(pool, lo, lo+n)
				touched, err := ix.AddRows(batch)
				if err != nil {
					t.Fatal(err)
				}
				if want := touchedTiles(batch, restrict); touched != want {
					t.Fatalf("sequence %d step %d: %d-row batch under %+v touched %d tiles, want %d", seq, step, n, restrict, touched, want)
				}
				appendRows(epoch, batch)
			}
		}
		check(seq)
	}
	if restricted == 0 || restricted == resets || big == 0 {
		t.Fatalf("sequences drew %d resets (%d restricted) and %d batches over %d rows; want every step kind", resets, restricted, big, bigBatch)
	}
}
