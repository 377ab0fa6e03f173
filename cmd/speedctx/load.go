// The load subcommand drives the ingest service at full tilt and reports
// sustained throughput and latency percentiles:
//
//	speedctx load -rows 100000 -conns 4 -batch 64 -min-rate 100000
//
// With no -addr it self-hosts the ingest server in-process (real HTTP over
// loopback — the same handler, classifier, queue and batcher path as
// speedtestd -ingest) so one command is a reproducible benchmark; pointing
// -addr at a running speedtestd load-tests that instead. Synthetic
// subscribers replay each city's Ookla samples, so the request mix has the
// paper's tier structure rather than uniform noise.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
	"speedctx/internal/ingest"
	"speedctx/internal/opendata"
)

type loadReport struct {
	Rows         int     `json:"rows"`
	Errors       int     `json:"errors"`
	Seconds      float64 `json:"seconds"`
	RowsPerSec   float64 `json:"rows_per_sec"`
	P50Ns        float64 `json:"p50_ns"`
	P95Ns        float64 `json:"p95_ns"`
	P99Ns        float64 `json:"p99_ns"`
	P999Ns       float64 `json:"p999_ns"`
	AllocsPerRow float64 `json:"allocs_per_row"`
	Snapshot     string  `json:"snapshot,omitempty"`
}

func runLoad(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	addr := fs.String("addr", "", "ingest server address (host:port); empty self-hosts in-process")
	cities := fs.String("cities", "A,B", "comma-separated cities to draw synthetic subscribers from")
	rows := fs.Int("rows", 100000, "total results to ingest")
	conns := fs.Int("conns", 4, "concurrent client connections")
	batch := fs.Int("batch", 64, "rows per request (1 = single-POST /v1/ingest, >1 = NDJSON /v1/ingest/batch)")
	scale := fs.Float64("scale", 0.002, "dataset scale for the model fits and sample pool")
	seed := fs.Int64("seed", 2021, "generation seed")
	minRate := fs.Float64("min-rate", 0, "fail unless sustained rows/sec reaches this floor (0 = no floor)")
	dir := fs.String("dir", "", "segment directory when self-hosting (empty = temp dir, removed afterwards)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rows <= 0 || *conns <= 0 || *batch <= 0 {
		return fmt.Errorf("load: rows, conns and batch must be positive")
	}

	s := experiments.NewSuite(*scale, *seed)
	s.FastFit = true

	// Deterministic synthetic subscribers: cycle each city's Ookla sample
	// view in a fixed interleave, stamping sequential test ids and
	// timestamps. Two runs with the same flags issue identical requests.
	var cityIDs []string
	for _, id := range strings.Split(*cities, ",") {
		if id = strings.TrimSpace(id); id != "" {
			cityIDs = append(cityIDs, id)
		}
	}
	if len(cityIDs) == 0 {
		return fmt.Errorf("load: no cities configured")
	}
	samples := make(map[string][]core.Sample, len(cityIDs))
	for _, id := range cityIDs {
		b, err := s.City(id)
		if err != nil {
			return err
		}
		samples[id] = b.OoklaSampleView()
	}
	base := time.Unix(1609459200, 0).UTC()
	makeRow := func(j int) dataset.IngestRow {
		id := cityIDs[j%len(cityIDs)]
		pool := samples[id]
		sm := pool[(j/len(cityIDs))%len(pool)]
		return dataset.IngestRow{
			TestID:       j,
			UserID:       j % 1000,
			City:         id,
			ISP:          "ISP-" + id,
			Timestamp:    base.Add(time.Duration(j) * time.Second),
			DownloadMbps: sm.Download,
			UploadMbps:   sm.Upload,
			LatencyMs:    float64(j%60) + 0.25,
		}
	}

	// Self-host unless a target was given.
	target := *addr
	var (
		pipe    *ingest.Pipeline
		httpSrv *http.Server
		segDir  string
	)
	if target == "" {
		classifiers := make(map[string]*core.Classifier, len(cityIDs))
		for _, id := range cityIDs {
			cl, err := s.CityClassifier(id)
			if err != nil {
				return err
			}
			classifiers[id] = cl
		}
		segDir = *dir
		if segDir == "" {
			tmp, err := os.MkdirTemp("", "speedctx-load-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			segDir = tmp
		}
		var err error
		pipe, err = ingest.NewPipeline(ingest.PipelineConfig{Dir: segDir})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			pipe.Close()
			return err
		}
		httpSrv = ingest.NewHTTPServer(ingest.NewServer(pipe, ingest.StaticModels(classifiers), ingest.ServerConfig{}).Handler())
		go httpSrv.Serve(ln)
		target = ln.Addr().String()
	}

	url := "http://" + target + "/v1/ingest"
	if *batch > 1 {
		url = "http://" + target + "/v1/ingest/batch"
	}

	// Pre-render every request body so the timed section measures the
	// server path, not client-side formatting.
	nReq := (*rows + *batch - 1) / *batch
	bodies := make([][]byte, 0, nReq)
	total := 0
	for at := 0; at < *rows; at += *batch {
		var buf []byte
		for j := at; j < at+*batch && j < *rows; j++ {
			row := makeRow(j)
			buf = ingest.AppendSubmission(buf, &row)
			if *batch > 1 {
				buf = append(buf, '\n')
			}
			total++
		}
		bodies = append(bodies, buf)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: *conns,
	}}
	lats := make([][]float64, *conns)
	errCounts := make([]int, *conns)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]float64, 0, len(bodies) / *conns + 1)
			for i := w; i < len(bodies); i += *conns {
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errCounts[w]++
					continue
				}
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat = append(lat, float64(time.Since(t0).Nanoseconds()))
				if cerr != nil || resp.StatusCode != http.StatusOK {
					errCounts[w]++
				}
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	rep := loadReport{Rows: total, Seconds: elapsed.Seconds()}
	rep.RowsPerSec = float64(total) / elapsed.Seconds()
	rep.AllocsPerRow = float64(ms1.Mallocs-ms0.Mallocs) / float64(total)
	var all []float64
	for w := range lats {
		all = append(all, lats[w]...)
		rep.Errors += errCounts[w]
	}
	sort.Float64s(all)
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return all[int(p*float64(len(all)-1))]
	}
	rep.P50Ns, rep.P95Ns, rep.P99Ns, rep.P999Ns = q(0.50), q(0.95), q(0.99), q(0.999)

	if httpSrv != nil {
		httpSrv.Close()
		if err := pipe.Close(); err != nil {
			return err
		}
		snap, err := ingest.CompactWith(segDir, ingest.CompactOptions{ClusterZoom: opendata.TileZoom})
		if err != nil {
			return err
		}
		if *dir != "" {
			rep.Snapshot = snap
		}
	}

	if *jsonOut {
		fmt.Fprintf(out, `{"rows":%d,"errors":%d,"seconds":%.3f,"rows_per_sec":%.0f,"p50_ns":%.0f,"p95_ns":%.0f,"p99_ns":%.0f,"p999_ns":%.0f,"allocs_per_row":%.1f`,
			rep.Rows, rep.Errors, rep.Seconds, rep.RowsPerSec, rep.P50Ns, rep.P95Ns, rep.P99Ns, rep.P999Ns, rep.AllocsPerRow)
		if rep.Snapshot != "" {
			fmt.Fprintf(out, `,"snapshot":%q`, rep.Snapshot)
		}
		fmt.Fprintln(out, "}")
	} else {
		fmt.Fprintf(out, "ingested %d rows in %.2fs over %d conns (batch %d): %.0f rows/sec\n",
			rep.Rows, rep.Seconds, *conns, *batch, rep.RowsPerSec)
		fmt.Fprintf(out, "request latency: p50 %s  p95 %s  p99 %s  p999 %s\n",
			time.Duration(rep.P50Ns), time.Duration(rep.P95Ns), time.Duration(rep.P99Ns), time.Duration(rep.P999Ns))
		fmt.Fprintf(out, "allocations: %.1f/row (whole process)\n", rep.AllocsPerRow)
		if rep.Snapshot != "" {
			fmt.Fprintf(out, "snapshot: %s\n", rep.Snapshot)
		}
	}

	if rep.Errors > 0 {
		return fmt.Errorf("load: %d of %d requests failed", rep.Errors, len(bodies))
	}
	if *minRate > 0 && rep.RowsPerSec < *minRate {
		return fmt.Errorf("load: sustained %.0f rows/sec, below the -min-rate floor %.0f", rep.RowsPerSec, *minRate)
	}
	return nil
}
