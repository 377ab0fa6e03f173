package tilequery

import (
	"bytes"
	"math/rand"
	"testing"

	"speedctx/internal/opendata"
)

// metricColumn names the value column each metric's value reads; tests
// and devices read none.
var metricColumn = map[string]string{"download": "download", "upload": "upload", "latency": "latency"}

// TestProjectedFoldProperty folds random row sets split into random
// batches twice: whole, and with some of the Download, Upload and Latency
// columns left out (as nil or as empty slices). Every metric that reads
// only columns still present must render the whole fold's bytes, at the
// base zoom and rolled up, so a fold for one metric may skip every other
// value column.
func TestProjectedFoldProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pool := synthRows(20_000, "A", "B")
	for trial := 0; trial < 40; trial++ {
		lo := rng.Intn(pool.Len() - 1)
		rows := sliceRows(pool, lo, lo+1+rng.Intn(min(pool.Len()-lo-1, 4_000)))
		present := map[string]bool{}
		for _, col := range []string{"download", "upload", "latency"} {
			present[col] = rng.Intn(2) == 0
		}
		drop := func(col string, c []float64) []float64 {
			switch {
			case present[col]:
				return c
			case rng.Intn(2) == 0:
				return nil
			}
			return c[:0]
		}
		whole, projected := NewIndex(Config{}), NewIndex(Config{})
		for at := 0; at < rows.Len(); {
			next := min(rows.Len(), at+1+rng.Intn(1_500))
			batch := sliceRows(rows, at, next)
			if _, err := whole.AddRows(batch); err != nil {
				t.Fatal(err)
			}
			batch.Download = drop("download", batch.Download)
			batch.Upload = drop("upload", batch.Upload)
			batch.Latency = drop("latency", batch.Latency)
			if _, err := projected.AddRows(batch); err != nil {
				t.Fatalf("trial %d: projected batch rejected: %v", trial, err)
			}
			at = next
		}
		for _, zoom := range []int{opendata.TileZoom, 12} {
			q := Query{Zoom: zoom}
			wantTiles, err := whole.Tiles(q)
			if err != nil {
				t.Fatal(err)
			}
			gotTiles, err := projected.Tiles(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, metric := range Metrics {
				if col, ok := metricColumn[metric]; ok && !present[col] {
					continue
				}
				want, err := AppendTilesJSON(nil, zoom, wantTiles, metric)
				if err != nil {
					t.Fatal(err)
				}
				got, err := AppendTilesJSON(nil, zoom, gotTiles, metric)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("trial %d zoom %d metric %s (present %v): projected fold renders other bytes", trial, zoom, metric, present)
				}
			}
		}
	}
}
