// Command speedtestd runs the shaped loopback speed-test server and,
// optionally, the measurement-ingest service.
//
//	speedtestd -addr 127.0.0.1:8099 -rate 200 -perconn 40
//	speedtestd -ingest 127.0.0.1:8102 -ingest-cities A,B -ingest-dir ./ingest
//
// rate and perconn are in Mbps; zero means unlimited. The per-connection
// cap emulates the per-flow ceiling that loss and fair queueing impose on
// real wide-area paths, which is what makes single-connection tests (M-Lab
// NDT) under-report against multi-connection tests (Ookla).
//
// With -ingest, the daemon also serves the contextualization API
// (DESIGN.md §11): it fits each configured city's BST model at startup,
// classifies every POSTed <download, upload> result against it, and
// persists accepted rows as quadkey-clustered, zone-mapped .sxc segments
// under -ingest-dir, compacted at shutdown into one snapshot clustered and
// zone-mapped at the same zoom 16 (DESIGN.md §15). The same server serves
// GET /v1/tiles — contextualized per-quadkey aggregates at zoom 16, folded
// live from the sealed segments (DESIGN.md §13; -tile-cache).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/experiments"
	"speedctx/internal/ingest"
	"speedctx/internal/ndt7"
	"speedctx/internal/opendata"
	"speedctx/internal/speedtest"
)

// Addrs reports the daemon's bound listen addresses; empty means the
// corresponding server was not enabled.
type Addrs struct {
	Raw    string
	NDT7   string
	Ingest string
}

// started is called once every enabled server is listening. Test seam: the
// smoke test swaps it to learn the ephemeral ports.
var started = func(Addrs) {}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "speedtestd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("speedtestd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8099", "listen address (raw-TCP protocol)")
	ndt7Addr := fs.String("ndt7", "", "also serve the NDT7 WebSocket protocol on this address (e.g. 127.0.0.1:8100)")
	rateMbps := fs.Float64("rate", 200, "total shaped rate in Mbps (0 = unlimited)")
	perConnMbps := fs.Float64("perconn", 0, "per-connection rate cap in Mbps (0 = unlimited)")

	ingestAddr := fs.String("ingest", "", "also serve the measurement-ingest API on this address (e.g. 127.0.0.1:8102)")
	ingestCities := fs.String("ingest-cities", "A,B,C,D", "comma-separated city models to load for ingest classification")
	ingestDir := fs.String("ingest-dir", "speedctx-ingest", "segment directory for ingested rows (.sxc)")
	ingestScale := fs.Float64("ingest-scale", 0.02, "dataset scale for the startup model fits")
	ingestSeed := fs.Int64("ingest-seed", 2021, "generation seed for the startup model fits")
	ingestFast := fs.Bool("ingest-fast", true, "fit the startup models with the fast paths (DESIGN.md §8)")
	ingestBatch := fs.Int("ingest-batch-rows", 0, "rows per sealed segment (0 = default 65536)")
	ingestAge := fs.Duration("ingest-age", 0, "max age of a partial batch before sealing (0 = default 2s)")
	ingestCompact := fs.Bool("ingest-compact", true, "compact segments into one quadkey-clustered, zone-mapped snapshot at shutdown")
	refitRows := fs.Int("ingest-refit-rows", 0, "refit a city's model once this many sealed rows await folding (0 = no row trigger)")
	refitAge := fs.Duration("ingest-refit-age", 0, "refit a city's model once it is this old and sealed rows await folding (0 = no age trigger)")
	tileCache := fs.Int("tile-cache", 0, "tile result cache capacity in tiles (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logf := log.New(stderr, "", log.LstdFlags).Printf
	var bound Addrs

	if *ndt7Addr != "" {
		perConn := *perConnMbps
		if perConn <= 0 {
			perConn = *rateMbps
		}
		ns, err := ndt7.NewServer(*ndt7Addr, ndt7.ServerConfig{Rate: perConn * 1e6 / 8})
		if err != nil {
			return fmt.Errorf("ndt7: %w", err)
		}
		defer ns.Close()
		bound.NDT7 = ns.Addr()
		logf("ndt7 listening on %s (per-connection %.0f Mbps)", ns.Addr(), perConn)
	}

	var (
		pipe      *ingest.Pipeline
		ingestSrv *ingest.Server
		httpSrv   *http.Server
		httpErr   = make(chan error, 1)
	)
	if *ingestAddr != "" {
		models, specs, fitCfg, err := loadIngestModels(*ingestCities, *ingestScale, *ingestSeed, *ingestFast, logf)
		if err != nil {
			return err
		}
		pipe, err = ingest.NewPipeline(ingest.PipelineConfig{
			Dir:         *ingestDir,
			BatchRows:   *ingestBatch,
			MaxBatchAge: *ingestAge,
			Sketches:    specs,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *ingestAddr)
		if err != nil {
			pipe.Close()
			return fmt.Errorf("ingest: listen: %w", err)
		}
		ingestSrv = ingest.NewServer(pipe, models, ingest.ServerConfig{
			RefitRows:      *refitRows,
			RefitAge:       *refitAge,
			FitConfig:      fitCfg,
			Logf:           logf,
			TileCacheTiles: *tileCache,
		})
		httpSrv = ingest.NewHTTPServer(ingestSrv.Handler())
		bound.Ingest = ln.Addr().String()
		logf("ingest listening on %s (%d city models, dir %s)", bound.Ingest, len(models), *ingestDir)
		go func() { httpErr <- httpSrv.Serve(ln) }()
	}

	srv, err := speedtest.NewServer(*addr, speedtest.ServerConfig{
		TotalRate:   *rateMbps * 1e6 / 8,
		PerConnRate: *perConnMbps * 1e6 / 8,
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	bound.Raw = srv.Addr()
	logf("speedtestd listening on %s (total %.0f Mbps, per-conn %.0f Mbps)",
		srv.Addr(), *rateMbps, *perConnMbps)
	started(bound)

	select {
	case <-ctx.Done():
	case err := <-httpErr:
		// The ingest listener failing is fatal; tear everything down.
		srv.Close()
		if pipe != nil {
			pipe.Close()
		}
		return fmt.Errorf("ingest: serve: %w", err)
	}

	firstErr := srv.Close()
	if httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(sctx); err != nil && firstErr == nil {
			firstErr = err
		}
		cancel()
	}
	if ingestSrv != nil {
		ingestSrv.Close()
	}
	if pipe != nil {
		if err := pipe.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if *ingestCompact {
			out, err := ingest.CompactWith(*ingestDir, ingest.CompactOptions{ClusterZoom: opendata.TileZoom})
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				logf("ingest snapshot compacted to %s", out)
			}
		}
	}
	return firstErr
}

// loadIngestModels fits (or loads via the suite's caches) one serving
// model per requested city: the startup classifier plus the base tier
// sketches live refresh refits from, and the matching per-city sketch
// specs the pipeline stamps into sealed segments.
func loadIngestModels(cities string, scale float64, seed int64, fast bool, logf func(string, ...any)) (map[string]*ingest.CityModel, map[string]ingest.CitySketchSpec, core.Config, error) {
	s := experiments.NewSuite(scale, seed)
	s.FastFit = fast
	models := map[string]*ingest.CityModel{}
	specs := map[string]ingest.CitySketchSpec{}
	for _, id := range strings.Split(cities, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		t0 := time.Now()
		cl, base, spec, err := s.CityServingModel(id)
		if err != nil {
			return nil, nil, core.Config{}, fmt.Errorf("ingest: city %s model: %w", id, err)
		}
		models[id] = &ingest.CityModel{Classifier: cl, Base: base}
		specs[id] = ingest.CitySketchSpec{Spec: spec, Tiers: len(base.Downloads)}
		logf("ingest model for city %s ready in %v", id, time.Since(t0).Round(time.Millisecond))
	}
	if len(models) == 0 {
		return nil, nil, core.Config{}, fmt.Errorf("ingest: no cities configured")
	}
	return models, specs, s.BSTConfig(), nil
}
