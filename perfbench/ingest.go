package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/ingest"
)

// The ingest workload (write path): a closed loop of NDJSON batch POSTs
// against an in-process ingest.Server, then Pipeline.Close and a clustered
// CompactWith. Each round ingests the same fixed row count into a fresh
// segment directory, so per-round costs (finish time, store size, memory)
// do not depend on how fast earlier rounds ran; rounds repeat until the
// measurement budget is spent.

// ingestTail is the tail percentile of per-request latency. A segment
// seals every 1,024 requests (0.1%) and GC cycles touch a few percent of
// requests; p90 keeps both periodic events well beyond the percentile
// instead of on its boundary (p99.9 sat right on the seal stalls).
const ingestTail = 0.90

type ingestFixture struct {
	g    *generator
	ring *ring
}

// ingestTotals accumulates one phase's rounds.
type ingestTotals struct {
	lat               latencies
	rows              int
	loop              time.Duration
	finish            []float64
	closeS, compactS  []float64
	heapPeakMB        float64
	segments, sealed  uint64
	rejected          uint64
	attempted, failed int
	storeBytesPerRow  float64
	gc                gcWindow
	windows           [][2]int64
	rounds            int
	roundRate         []float64 // rows per second of each round's request loop
}

func runIngest(e *env) (*result, error) {
	r := newResult()
	fx, setup, err := timeSetup(e.size.setupRepeats, func(int) (*ingestFixture, error) {
		g, err := newGenerator(e.seed, e.size.users, nil)
		if err != nil {
			return nil, err
		}
		return &ingestFixture{g, newRing(g, e.size.ringBodies, e.size.batch)}, nil
	}, func(*ingestFixture) {})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, fmt.Sprintf("median of %d set-ups: four city fits, %d pre-rendered %d-row bodies",
		e.size.setupRepeats, e.size.ringBodies, e.size.batch))

	// Warm-up: one short round, untimed, so connection set-up, first-use
	// allocations and code paths are paid before measurement.
	var warm ingestTotals
	if err := ingestRound(e, fx, e.size.warmRows, nil, r, &warm); err != nil {
		return nil, err
	}

	rss := startRSS()
	base, err := ingestPhase(e, fx, nil, r)
	if err != nil {
		return nil, err
	}
	peak := rss.peakMB()
	r.Attempted, r.Failed = base.attempted, base.failed
	if !e.trace {
		r.set("throughput_per_s", median(base.roundRate),
			fmt.Sprintf("median over %d rounds of rows acked per second of request loop (%d rows in %.2f s)",
				base.rounds, base.rows, base.loop.Seconds()))
		base.lat.summarize(r, ingestTail)
		r.set("finish_s", median(base.finish), fmt.Sprintf("median of %d rounds: Pipeline.Close + CompactWith of %d rows", len(base.finish), e.size.roundRows))
		r.set("peak_rss_mb", peak, "peak resident set over the measured rounds")
		r.set("store_bytes_per_row", base.storeBytesPerRow, "compacted clustered store")
		return r, nil
	}

	t := newTracer()
	traced, err := ingestPhase(e, fx, t, r)
	if err != nil {
		return nil, err
	}
	r.Attempted += traced.attempted
	r.Failed += traced.failed
	ss := indexSpans(t.snapshot())
	r.set("http.roundtrip_ms", median(ss.durations("http.roundtrip", "")), fmt.Sprintf("p50 of %d client spans", len(ss.durations("http.roundtrip", ""))))
	r.set("ingest.handler_ms", median(ss.durations("ingest.handler", "/v1/ingest/batch")), "p50 of handler spans")
	r.set("http.transport_ms", median(ss.selfTimes("http.roundtrip")), "p50 of round trip minus handler")
	r.set("ingest.close_s", median(traced.closeS), "median per round")
	r.set("ingest.compact_s", median(traced.compactS), "median per round")
	r.set("ingest.compact_heap_peak_mb", traced.heapPeakMB, "peak live heap during CompactWith")
	r.set("ingest.segments_sealed", float64(traced.segments), fmt.Sprintf("over %d traced rounds", traced.rounds))
	r.set("ingest.rows_sealed", float64(traced.sealed), fmt.Sprintf("over %d traced rounds", traced.rounds))
	r.set("ingest.rejected", float64(base.rejected+traced.rejected), "from /statsz, both phases")
	r.set("runtime.gc_cycles", float64(base.gc.cycles), fmt.Sprintf("untraced phase, %d rounds", base.rounds))
	r.set("runtime.gc_pause_ms", float64(base.gc.pauseNs)/1e6, "untraced phase, total stop-the-world")
	r.set("core.classify_ns_per_row", classifyNsPerRow(fx), "ClassifyOne over the ring's rows, median of 5 passes")
	if err := generationMetrics(e, t, r); err != nil {
		return nil, err
	}
	perRow := func(tt ingestTotals) float64 { return tt.loop.Seconds() / float64(tt.rows) }
	r.set("trace.overhead_ratio", perRow(traced)/perRow(base)-1, "request-loop seconds per row, traced over untraced")
	coverage(r, ss, traced.windows)
	return r, e.writeTrace(t)
}

// ingestPhase runs rounds until the phase budget is spent (at least one).
func ingestPhase(e *env, fx *ingestFixture, t *tracer, r *result) (ingestTotals, error) {
	var tot ingestTotals
	start := time.Now()
	for tot.rounds == 0 || time.Since(start).Seconds() < e.phaseSeconds() {
		if err := ingestRound(e, fx, e.size.roundRows, t, r, &tot); err != nil {
			return tot, err
		}
	}
	return tot, nil
}

// ingestRound ingests rows rows into a fresh directory through a fresh
// pipeline and server, finishes the store, checks it, and adds the round's
// measurements to tot.
func ingestRound(e *env, fx *ingestFixture, rows int, t *tracer, r *result, tot *ingestTotals) error {
	dir := e.path(fmt.Sprintf("ingest-%d", time.Now().UnixNano()))
	defer os.RemoveAll(dir)
	pipe, err := ingest.NewPipeline(ingest.PipelineConfig{Dir: dir, BatchRows: e.size.segRows})
	if err != nil {
		return err
	}
	srv := ingest.NewServer(pipe, ingest.StaticModels(fx.g.classifiers), ingest.ServerConfig{})
	defer srv.Close()
	ls, err := serve(t.wrap(srv.Handler()))
	if err != nil {
		pipe.Close()
		return err
	}
	c := newClient(ls.base, t)

	ring := fx.ring
	acked := make([]int, len(ring.bodies)) // acks per body, for the store check
	ackedRows, mismatches := 0, 0
	runtime.GC()
	gc := startGC()
	w0 := t.now()
	t0 := time.Now()
	for sent, i := 0, 0; sent < rows; sent, i = sent+ring.rows, i+1 {
		b := i % len(ring.bodies)
		status, resp, lat, err := c.do(http.MethodPost, "/v1/ingest/batch", ring.bodies[b], "ingest")
		tot.attempted++
		switch {
		case err != nil || status != http.StatusOK:
			tot.failed++
			continue
		case !ackOK(resp, ring.acks[b]):
			tot.failed++
			mismatches++
			continue
		}
		acked[b]++
		ackedRows += ring.rows
		tot.lat = append(tot.lat, ms(lat))
	}
	loop := time.Since(t0)
	w1 := t.now()
	gc.addTo(&tot.gc)
	st, err := c.stats()
	c.close()
	ls.close()
	if err != nil {
		pipe.Close()
		return err
	}

	// Finish: from the last ack until the compacted store is written.
	w2 := t.now()
	f0 := time.Now()
	sp := t.begin("ingest.close", "", 0, 0)
	err = pipe.Close()
	sp.end()
	closeD := time.Since(f0)
	if err != nil {
		return err
	}
	var heap *heapSampler
	if t != nil {
		heap = startHeap()
	}
	c0 := time.Now()
	sp = t.begin("ingest.compact", "", 0, 0)
	store, err := ingest.CompactWith(dir, ingest.CompactOptions{ClusterZoom: e.size.clusterZ})
	sp.end()
	compactD := time.Since(c0)
	finish := time.Since(f0)
	w3 := t.now()
	if heap != nil {
		tot.heapPeakMB = max(tot.heapPeakMB, heap.peakMB())
	}
	if err != nil {
		return err
	}

	// Checks, outside every timed window.
	_, sealed, segs := pipe.Stats()
	if mismatches > 0 {
		r.fail("ingest: %d acks disagree with ClassifyOne on the same rows", mismatches)
	}
	if st.Rejected != 0 {
		r.fail("ingest: server rejected %d rows", st.Rejected)
	}
	if int(sealed) != ackedRows || int(st.Accepted) != ackedRows {
		r.fail("ingest: %d rows acked, %d accepted, %d sealed", ackedRows, st.Accepted, sealed)
	}
	want := make([]int, 0)
	for b, n := range acked {
		for tier, k := range ring.tierCounts[b] {
			for len(want) <= tier {
				want = append(want, 0)
			}
			want[tier] += n * k
		}
	}
	got, size, err := storeTierCounts(store)
	if err != nil {
		r.fail("ingest: scan compacted store: %v", err)
	} else if !equalCounts(got, want) {
		r.fail("ingest: compacted store tier counts %v, acked %v", got, want)
	}

	tot.rows += ackedRows
	tot.loop += loop
	tot.roundRate = append(tot.roundRate, float64(ackedRows)/loop.Seconds())
	tot.finish = append(tot.finish, finish.Seconds())
	tot.closeS = append(tot.closeS, closeD.Seconds())
	tot.compactS = append(tot.compactS, compactD.Seconds())
	tot.segments += segs
	tot.sealed += sealed
	tot.rejected += st.Rejected
	tot.storeBytesPerRow = float64(size) / float64(max(ackedRows, 1))
	tot.windows = append(tot.windows, [2]int64{w0, w1}, [2]int64{w2, w3})
	tot.rounds++
	return nil
}

// storeTierCounts scans a compacted store's tier column and returns the
// row count per plan tier and the file size.
func storeTierCounts(path string) ([]int, int64, error) {
	src, err := dataset.OpenFileSource(path)
	if err != nil {
		return nil, 0, err
	}
	defer src.Close()
	sc, err := dataset.NewBlockScanner(src, dataset.SnapshotSelection{Ingest: dataset.Cols(dataset.IngestColTier)}, 0)
	if err != nil {
		return nil, 0, err
	}
	var counts []int
	for sc.Scan() {
		b := sc.Batch()
		if b.Kind != dataset.SectionIngest {
			continue
		}
		for _, tier := range b.Ingest.Tier[:b.Rows] {
			for len(counts) <= tier {
				counts = append(counts, 0)
			}
			counts[tier]++
		}
	}
	return counts, src.Size(), sc.Err()
}

func equalCounts(a, b []int) bool {
	for len(a) > 0 && a[len(a)-1] == 0 {
		a = a[:len(a)-1]
	}
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ackOK checks a batch ack against the expected one line by line: each
// line's tier and upload tier must equal ClassifyOne's verdict on the same
// row. Only the verdict is compared, so a change in how the confidence is
// printed is not a failure but a changed verdict is.
func ackOK(got, want []byte) bool {
	for len(want) > 0 {
		var g, w []byte
		g, got, _ = bytes.Cut(got, []byte{'\n'})
		w, want, _ = bytes.Cut(want, []byte{'\n'})
		for _, key := range []string{`"tier":`, `"upload_tier":`} {
			gv, ok := intAfter(g, key)
			if wv, _ := intAfter(w, key); !ok || gv != wv {
				return false
			}
		}
	}
	return len(bytes.TrimSpace(got)) == 0
}

// intAfter parses the integer following key in line.
func intAfter(line []byte, key string) (int, bool) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	neg := i < len(line) && line[i] == '-'
	if neg {
		i++
	}
	v, digits := 0, 0
	for ; i < len(line) && line[i] >= '0' && line[i] <= '9'; i++ {
		v = v*10 + int(line[i]-'0')
		digits++
	}
	if neg {
		v = -v
	}
	return v, digits > 0
}

// generationMetrics builds the set-up's city models once more, traced and
// outside every timed region, and sets the per-layer metrics of dataset
// generation and the BST fits.
func generationMetrics(e *env, t *tracer, r *result) error {
	g, err := newGenerator(e.seed, e.size.users, t)
	if err != nil {
		return err
	}
	ss := indexSpans(t.snapshot())
	sum := func(name string) float64 {
		total := 0.0
		for _, d := range ss.durations(name, "") {
			total += d / 1e3
		}
		return total
	}
	rows := 0
	for _, id := range g.cities {
		if b, err := g.suite.City(id); err == nil {
			rows += len(b.Ookla) + len(b.MLabRows) + len(b.MBA)
		}
	}
	st := g.suite.FitCache.Snapshot()
	r.set("experiments.city_s", sum("experiments.city"), fmt.Sprintf("Suite.City of %d cities at scale %g, one set-up", len(g.cities), genScale))
	r.set("core.fit_s", sum("core.fit"), "Suite.CityClassifier (fast BST fit) of every city, one set-up")
	r.set("dataset.rows_generated", float64(rows), "Ookla + M-Lab + MBA rows of every city, one set-up")
	r.set("fitcache.hits", float64(st.Hits), "one set-up")
	r.set("fitcache.misses", float64(st.Misses), "one set-up")
	return nil
}

// classifyNsPerRow times core.Classifier.ClassifyOne over the ring's rows,
// outside any timed region: the median of five passes, in ns per row.
func classifyNsPerRow(fx *ingestFixture) float64 {
	n := len(fx.ring.bodies) * fx.ring.rows
	rows := make([]dataset.IngestRow, n)
	for j := range rows {
		rows[j] = fx.g.row(j)
	}
	var passes []float64
	sink := 0
	for p := 0; p < 5; p++ {
		t0 := time.Now()
		for i := range rows {
			sink += fx.g.classifiers[rows[i].City].ClassifyOne(rows[i].DownloadMbps, rows[i].UploadMbps).Tier
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	_ = sink
	return median(passes)
}
