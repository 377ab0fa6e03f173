// The zonemap-verify subcommand is the CI gate for the zone-map pushdown
// contract (DESIGN.md §15):
//
//	speedctx zonemap-verify [-rows N]
//
// It synthesizes the stream-verify row set, compacts it twice — once
// quadkey-clustered into a zoned v3 snapshot, once in canonical order into
// a v2 snapshot — and renders a one-city bbox query from both files across
// the full identity matrix: {clustered, unclustered} x {pushdown on, off}
// x fold parallelism {1, 4, all} x scan batch {1, 4096, whole}. Every one
// of the renderings must be byte-identical to the in-memory reference
// fold, and the clustered+pushdown cells must actually have skipped row
// groups (the unclustered and predicate-free cells must have skipped
// none). Any divergence — wrong bytes, a skip where none is allowed, or
// no skips where the zone maps guarantee them — fails the gate.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/ingest"
	"speedctx/internal/opendata"
	"speedctx/internal/plans"
	"speedctx/internal/tilequery"
)

func runZonemapVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("zonemap-verify", flag.ContinueOnError)
	nRows := fs.Int("rows", 6000, "synthetic ingest rows spread across the compacted segments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nRows < 100 {
		return fmt.Errorf("zonemap-verify: -rows must be >= 100")
	}

	cities := []string{"A", "B"}
	specs := make(map[string]ingest.CitySketchSpec, len(cities))
	for _, city := range cities {
		cat, ok := plans.ByCity(city)
		if !ok {
			return fmt.Errorf("zonemap-verify: unknown city %q", city)
		}
		specs[city] = ingest.CitySketchSpec{
			Spec:  core.SketchSpecFor(cat, 0),
			Tiers: len(cat.UploadTiers()),
		}
	}
	all := svSynthRows(*nRows, cities, specs)

	root, err := os.MkdirTemp("", "speedctx-zonemap-verify-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Two compactions of the same segments: quadkey-clustered zoned v3 and
	// canonical-order v2. Same row multiset, different layouts.
	layouts := []struct {
		name      string
		clustered bool
		path      string
	}{{name: "clustered", clustered: true}, {name: "unclustered"}}
	for i := range layouts {
		dir := filepath.Join(root, layouts[i].name)
		if _, err := svWriteSegments(dir, all, 3, specs); err != nil {
			return err
		}
		opts := ingest.CompactOptions{}
		if layouts[i].clustered {
			opts = ingest.CompactOptions{ClusterZoom: opendata.TileZoom, ZoneBlockRows: 512}
		}
		if layouts[i].path, err = ingest.CompactWith(dir, opts); err != nil {
			return err
		}
	}

	// One-neighborhood bbox around city A: the clustered file's zone maps
	// must prove city B's (and most of A's) row groups irrelevant.
	c := opendata.CityCenter(cities[0])
	rng, err := opendata.TileRangeForBBox(c.Lat-0.11, c.Lon-0.11, c.Lat+0.11, c.Lon+0.11, opendata.TileZoom)
	if err != nil {
		return err
	}
	q := tilequery.Query{Zoom: opendata.TileZoom, Range: &rng}

	// Reference: the in-memory fold of all rows, queried through the bbox.
	ref := tilequery.NewIndex(tilequery.Config{Parallelism: 1})
	if _, err := ref.AddRows(svTileRows(all)); err != nil {
		return err
	}
	refTiles, err := ref.Tiles(q)
	if err != nil {
		return err
	}
	want, err := tilequery.AppendTilesJSON(nil, q.Zoom, refTiles, "")
	if err != nil {
		return err
	}

	batches := []int{1, 4096, 1 << 30}
	pars := []int{1, 4, 0}
	fmt.Fprintf(out, "zonemap-verify: %d rows, bbox over city %s, batches {1,4096,whole}, parallelism %v\n",
		*nRows, cities[0], pars)

	checks := 0
	for _, layout := range layouts {
		for _, push := range []bool{false, true} {
			var skips, scans int
			for _, batch := range batches {
				for _, par := range pars {
					cfg := tilequery.Config{Parallelism: par}
					sel := svTileSelection
					if push {
						sel.Predicate = cfg.Pushdown(q.Range)
					}
					src, err := dataset.OpenFileSource(layout.path)
					if err != nil {
						return err
					}
					sc, err := dataset.NewBlockScanner(src, sel, batch)
					if err != nil {
						src.Close()
						return err
					}
					ix := tilequery.NewIndex(cfg)
					if push {
						// Like the serving path, pushdown pairs the zone
						// predicate with a fold restricted to the bbox.
						if err := ix.Reset(q.Range); err != nil {
							src.Close()
							return err
						}
					}
					_, err = ix.AddScan(sc)
					ctr := sc.Counters()
					src.Close()
					if err != nil {
						return err
					}
					tiles, err := ix.Tiles(q)
					if err != nil {
						return err
					}
					got, err := tilequery.AppendTilesJSON(nil, q.Zoom, tiles, "")
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("zonemap-verify: FAIL: %s push=%v batch=%d par=%d renders different bytes", layout.name, push, batch, par)
					}
					skips += ctr.BlocksSkipped
					scans += ctr.BlocksScanned
					checks++
				}
			}
			switch {
			case layout.clustered && push && skips == 0:
				return fmt.Errorf("zonemap-verify: FAIL: clustered pushdown skipped no row groups (scanned %d)", scans)
			case !(layout.clustered && push) && skips > 0:
				return fmt.Errorf("zonemap-verify: FAIL: %s push=%v skipped %d row groups, want 0", layout.name, push, skips)
			case layout.clustered && scans == 0:
				return fmt.Errorf("zonemap-verify: FAIL: clustered scan bound no zone-mapped groups")
			}
			fmt.Fprintf(out, "zonemap-verify: %s push=%v OK (%d groups scanned, %d skipped across the matrix)\n",
				layout.name, push, scans, skips)
		}
	}
	fmt.Fprintf(out, "zonemap-verify: OK (%d renderings byte-identical to the in-memory fold, %d bytes)\n", checks, len(want))
	return nil
}
