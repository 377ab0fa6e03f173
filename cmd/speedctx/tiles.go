// The tiles subcommand runs the geo-tiled aggregate query layer
// (DESIGN.md §13) from the command line:
//
//	speedctx tiles [-city A] [-scale 0.02] [-seed 2021] [-par 0]
//	               [-zoom 16] [-bbox minLat,minLon,maxLat,maxLon]
//	               [-metric download|upload|latency|tests|devices]
//	               [-format json|csv] [-snapshot-dir DIR [-cluster-zoom 16]]
//
// Without -snapshot-dir the city is generated in memory and aggregated;
// with it, rows stream from the city's .sxc snapshot in bounded batches
// (five of sixteen Ookla columns decoded, everything else skipped by
// seek), classified and folded batch by batch (DESIGN.md §14). Both paths
// produce byte-identical output; TestTileRowsSnapshotIdentity in
// internal/experiments gates that.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
	"speedctx/internal/opendata"
	"speedctx/internal/tilequery"
)

func runTiles(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tiles", flag.ContinueOnError)
	city := fs.String("city", "A", "city identifier (A-D)")
	scale := fs.Float64("scale", 0.02, "fraction of the paper's dataset sizes")
	seed := fs.Int64("seed", 2021, "generation seed")
	par := fs.Int("par", 0, "generation and BST fit parallelism: 0 = all CPUs, 1 = serial (output is identical at every setting)")
	zoom := fs.Int("zoom", opendata.TileZoom, "output zoom level (1..16)")
	bbox := fs.String("bbox", "", "restrict output to minLat,minLon,maxLat,maxLon")
	metric := fs.String("metric", "", "single-metric projection: download|upload|latency|tests|devices (JSON only)")
	format := fs.String("format", "json", "output format: json or csv")
	snapDir := fs.String("snapshot-dir", "", "stream rows from this .sxc snapshot directory in bounded batches (writing the snapshot on a miss) instead of keeping the city in memory (byte-identical output; DESIGN.md §14)")
	clusterZoom := fs.Int("cluster-zoom", 0, "with -snapshot-dir: write (or reuse) a quadkey-clustered zoned sibling of the snapshot at this zoom and push the -bbox predicate into its scan, skipping row groups outside the box (byte-identical output; DESIGN.md §15); 0 disables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *zoom < 1 || *zoom > opendata.TileZoom {
		return fmt.Errorf("tiles: -zoom must be in [1, %d]", opendata.TileZoom)
	}
	if *format != "json" && *format != "csv" {
		return fmt.Errorf("tiles: unknown format %q", *format)
	}
	if *metric != "" && *format != "json" {
		return fmt.Errorf("tiles: -metric projects JSON output only; drop it or use -format json")
	}
	if *clusterZoom != 0 && *snapDir == "" {
		return fmt.Errorf("tiles: -cluster-zoom needs -snapshot-dir (pushdown seeks through a snapshot scan)")
	}
	if *clusterZoom < 0 || *clusterZoom > opendata.MaxZoom {
		return fmt.Errorf("tiles: -cluster-zoom must be in [1, %d] (or 0 to disable)", opendata.MaxZoom)
	}

	q := tilequery.Query{Zoom: *zoom}
	if *bbox != "" {
		rng, err := opendata.ParseBBox(*bbox, *zoom)
		if err != nil {
			return fmt.Errorf("tiles: -bbox: %w", err)
		}
		q.Range = &rng
	}

	tqcfg := tilequery.Config{City: *city}
	var tiles []opendata.ContextTile
	if *snapDir != "" {
		fitCfg := core.Config{Parallelism: *par, FastFit: true}
		path, err := ensureSnapshot(*snapDir, *city, *scale, *seed, fitCfg)
		if err != nil {
			return err
		}
		// The fit always streams the original (order-dependent) file; with
		// -cluster-zoom the fold streams the clustered zoned sibling.
		scanPath := path
		if *clusterZoom > 0 {
			if scanPath, err = experiments.ClusterSnapshot(path, *clusterZoom, 0); err != nil {
				return err
			}
		}
		ix, ctr, err := experiments.StreamTileIndex(path, scanPath, *city, fitCfg, 0, tqcfg, q.Range)
		if err != nil {
			return err
		}
		if *clusterZoom > 0 && ctr.BlocksScanned+ctr.BlocksSkipped == 0 {
			return fmt.Errorf("tiles: clustered scan bound no zone-mapped groups (%+v)", ctr)
		}
		if ctr.ColumnsSkipped == 0 || ctr.SectionsSkipped == 0 {
			return fmt.Errorf("tiles: streamed snapshot scan skipped nothing (%+v)", ctr)
		}
		if tiles, err = ix.Tiles(q); err != nil {
			return err
		}
	} else {
		s := experiments.NewSuite(*scale, *seed)
		s.Parallelism = *par
		s.FastFit = true
		rows, err := s.TileRows(*city)
		if err != nil {
			return err
		}
		if tiles, err = tilequery.Aggregate(rows, tqcfg, q); err != nil {
			return err
		}
	}
	if *format == "csv" {
		return tilequery.WriteTilesCSV(out, tiles)
	}
	buf, err := tilequery.AppendTilesJSON(nil, *zoom, tiles, *metric)
	if err != nil {
		return err
	}
	_, err = out.Write(append(buf, '\n'))
	return err
}

// ensureSnapshot returns the path of the city's snapshot in dir,
// generating and writing it first if the store misses.
func ensureSnapshot(dir, city string, scale float64, seed int64, fitCfg core.Config) (string, error) {
	store := &dataset.SnapshotStore{Dir: dir}
	key := dataset.SnapshotKey{City: city, Seed: seed, Scale: scale}
	path := store.Path(key)
	if _, err := os.Stat(path); err != nil {
		// Miss: let the suite generate the city and write the snapshot.
		s := experiments.NewSuite(scale, seed)
		s.Parallelism = fitCfg.Parallelism
		s.FastFit = true
		s.SnapshotDir = dir
		if _, err := s.City(city); err != nil {
			return "", err
		}
	}
	return path, nil
}
