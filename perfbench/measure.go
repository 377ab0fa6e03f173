package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json (a test keeps them in
// step): every workload reports every end-to-end metric on an untraced run
// and every per-layer metric on a traced run.
type metricDef struct {
	Name, Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"finish_s", "s"},
	{"peak_rss_mb", "MB"},
	{"store_bytes_per_row", "B/row"},
}

// tileClasses are the tiles workload's query classes, in report order.
var tileClasses = []string{"nbhd", "city", "rollup", "nopush"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"http.roundtrip_ms", "ms"},
		{"ingest.handler_ms", "ms"},
		{"http.transport_ms", "ms"},
		{"core.classify_ns_per_row", "ns/row"},
		{"ingest.close_s", "s"},
		{"ingest.compact_s", "s"},
		{"ingest.compact_heap_peak_mb", "MB"},
		{"ingest.segments_sealed", "count"},
		{"ingest.rows_sealed", "count"},
		{"ingest.rejected", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
	}
	for _, m := range []metricDef{
		{"dataset.scan_ms", "ms"},
		{"tilequery.fold_ms", "ms"},
		{"tilequery.tiles_ms", "ms"},
		{"tilequery.render_ms", "ms"},
		{"dataset.blocks_scanned", "count"},
		{"dataset.blocks_skipped", "count"},
		{"dataset.rows_skipped", "count"},
		{"dataset.cols_decoded", "count"},
		{"dataset.zone_skip_ratio", "ratio"},
	} {
		for _, c := range tileClasses {
			defs = append(defs, metricDef{m.Name + "." + c, m.Unit})
		}
	}
	return append(defs,
		metricDef{"tilequery.cache_hit_ratio", "ratio"},
		metricDef{"experiments.city_s", "s"},
		metricDef{"core.fit_s", "s"},
		metricDef{"dataset.rows_generated", "count"},
		metricDef{"fitcache.hits", "count"},
		metricDef{"fitcache.misses", "count"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.uncovered_share", "ratio"},
	)
}()

// result collects one run's outcome: the operation accounting, the failed
// correctness checks, and the metric values with a one-line note each
// (percentile, sample count, base of a ratio) for the human-readable lines.
type result struct {
	Attempted, Failed int
	failures          []string
	values            map[string]float64
	notes             map[string]string
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric value with an optional note.
func (r *result) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// fail records a failed correctness check. The run still completes and
// prints its metrics, but reports correct=false.
func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// print writes one human-readable line per metric of defs, then the
// result object as the last line. Metrics of defs the workload did not
// set are reported as 0 (a per-layer metric of another workload's layer).
func (r *result) print(w io.Writer, workload string, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.failures) == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, f := range r.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "workload %s: %d operations attempted, %d failed\n", workload, r.Attempted, r.Failed)
	for _, d := range defs {
		v, ok := r.values[d.Name]
		note := r.notes[d.Name]
		if !ok {
			note = "not measured by this workload"
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-7s %s\n", d.Name, v, d.Unit, note)
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the nearest-rank q-quantile of sorted (q in [0, 1]).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// smoothQuantile is the Harrell-Davis estimate of the q-quantile of sorted
// in its large-sample form: a mean of the order statistics weighted by a
// Gaussian centred on rank share q, of standard deviation
// sqrt(q(1-q)/(n+1)). The nearest-rank quantile jumps between neighbouring
// samples, and where samples come in clusters with gaps between them (one
// cluster per query class) a small reordering moved it from
// one cluster to the next; the weighted mean moves smoothly instead.
func smoothQuantile(sorted []float64, q float64) float64 {
	n := float64(len(sorted))
	sd := math.Sqrt(q * (1 - q) / (n + 1))
	if len(sorted) == 0 || sd == 0 {
		return quantile(sorted, q)
	}
	cdf := func(x float64) float64 { return 0.5 * (1 + math.Erf((x-q)/(sd*math.Sqrt2))) }
	var sum, wsum float64
	for i, v := range sorted {
		w := cdf(float64(i+1)/n) - cdf(float64(i)/n)
		sum += w * v
		wsum += w
	}
	return sum / wsum
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies is a per-operation latency sample set in milliseconds.
type latencies []float64

// summarize reports the p50 and the tail percentile tail (e.g. 0.99) as
// latency_p50_ms and latency_tail_ms, both Harrell-Davis estimates, noting
// the sample count and how many samples lie beyond the tail percentile.
func (l latencies) summarize(r *result, tail float64) {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	r.set("latency_p50_ms", smoothQuantile(s, 0.5), fmt.Sprintf("p50 (Harrell-Davis) of %d operations", len(s)))
	beyond := len(s) - int(math.Ceil(tail*float64(len(s))))
	r.set("latency_tail_ms", smoothQuantile(s, tail), fmt.Sprintf("p%s (Harrell-Davis) of %d operations, %d beyond it (nearest-rank p95 %.3g, p99 %.3g, p99.9 %.3g, max %.3g)",
		strconv.FormatFloat(100*tail, 'f', -1, 64), len(s), beyond,
		quantile(s, 0.95), quantile(s, 0.99), quantile(s, 0.999), quantile(s, 1)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rssSampler records the process's peak resident set size while it runs:
// a goroutine polls /proc/self/statm every few milliseconds. Off Linux it
// falls back to the Go runtime's view of mapped, unreleased memory.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startRSS() *rssSampler {
	// Hand memory freed by set-up back to the OS, so the peak describes the
	// measured phase rather than what set-up left resident.
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if v := residentBytes(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak in MiB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	if v := residentBytes(); v > s.peak {
		s.peak = v
	}
	return float64(s.peak) / (1 << 20)
}

func residentBytes() uint64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				return pages * uint64(os.Getpagesize())
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// heapSampler records the peak live heap (bytes in heap objects) while it
// runs — the per-layer view of a memory-heavy call.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeap() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// gcWindow measures garbage-collector activity between start and stop.
type gcWindow struct {
	cycles  uint32
	pauseNs uint64
}

func startGC() gcWindow {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcWindow{m.NumGC, m.PauseTotalNs}
}

// add accumulates the activity since w was started into total.
func (w gcWindow) addTo(total *gcWindow) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	total.cycles += m.NumGC - w.cycles
	total.pauseNs += m.PauseTotalNs - w.pauseNs
}

// timeSetup runs build repeats times and returns the last result and the
// median wall time, so setup_s does not rest on one short measurement.
// Every build but the last is released with discard.
func timeSetup[T any](repeats int, build func(i int) (T, error), discard func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build(i)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return last, 0, err
		}
		if i > 0 {
			discard(last)
		}
		last = v
	}
	return last, median(times), nil
}
