package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"speedctx/internal/ingest"
)

// tinySizes runs every workload end to end in seconds.
var tinySizes = sizes{
	setupRepeats: 1,
	users:        100,
	batch:        8,
	ringBodies:   16,
	roundRows:    512,
	warmRows:     64,
	segRows:      128,
	storeRows:    16384,
	freshRows:    1024,
	freshSegs:    2,
	perClass:     2,
	clusterZ:     16,
}

func tinyEnv(t *testing.T, workload string, trace bool) *env {
	dir := filepath.Join(t.TempDir(), "work")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return &env{workload: workload, seed: 7, seconds: 0.01, trace: trace, dir: dir, size: tinySizes}
}

// runTiny runs a workload at tinySizes and returns its parsed result line.
func runTiny(t *testing.T, workload string, trace bool) (map[string]any, *env) {
	t.Helper()
	e := tinyEnv(t, workload, trace)
	r, err := workloads[workload](e)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	var out bytes.Buffer
	if err := r.print(&out, workload, defs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if res["correct"] != true {
		t.Fatalf("%s: checks failed:\n%s", workload, out.String())
	}
	if res["attempted"].(float64) < 1 {
		t.Fatalf("%s: nothing attempted", workload)
	}
	checkMetrics(t, res, defs)
	return res, e
}

// checkMetrics asserts the result carries exactly defs, with their units.
func checkMetrics(t *testing.T, res map[string]any, defs []metricDef) {
	t.Helper()
	metrics := res["metrics"].(map[string]any)
	if len(metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m["unit"] != d.Unit {
			t.Errorf("metric %s unit %v, want %s", d.Name, m["unit"], d.Unit)
		}
	}
}

func TestTinyWorkloadsReportEveryEndToEndMetric(t *testing.T) {
	for _, w := range []string{"ingest", "tiles"} {
		t.Run(w, func(t *testing.T) {
			res, _ := runTiny(t, w, false)
			for name, v := range res["metrics"].(map[string]any) {
				if v.(map[string]any)["value"].(float64) <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", name, v)
				}
			}
		})
	}
}

// TestTracedRunLinksSpans checks the traced mode's span file: every
// handler span of an ingest request links to the client span that caused
// it and shares its request id.
func TestTracedRunLinksSpans(t *testing.T) {
	_, e := runTiny(t, "ingest", true)
	f, err := os.Open(filepath.Join(filepath.Dir(e.dir), "trace-ingest-seed7.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[uint64]span{}
	var handlers []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		byID[s.ID] = s
		if s.Name == "ingest.handler" && s.Tag == "/v1/ingest/batch" {
			handlers = append(handlers, s)
		}
	}
	if len(handlers) == 0 {
		t.Fatal("no handler spans recorded")
	}
	for _, h := range handlers {
		p, ok := byID[h.Parent]
		if !ok || p.Name != "http.roundtrip" {
			t.Fatalf("handler span %d has parent %d (%+v), want a client round-trip span", h.ID, h.Parent, p)
		}
		if h.Req == 0 || h.Req != p.Req {
			t.Fatalf("handler span request id %d, client span %d", h.Req, p.Req)
		}
		if h.Start < p.Start || h.End > p.End {
			t.Fatalf("handler span [%d, %d] outside its client span [%d, %d]", h.Start, h.End, p.Start, p.End)
		}
	}
}

func TestTracedTilesReportsEveryLayerMetric(t *testing.T) {
	runTiny(t, "tiles", true)
}

func TestAckCheckFiresOnChangedVerdict(t *testing.T) {
	want := appendAck(appendAck(nil, 3, 1, 0.75), 2, 0, 0.5)
	if !ackOK(want, want) {
		t.Fatal("identical ack rejected")
	}
	reformatted := bytes.Replace(want, []byte("0.75"), []byte("0.750"), 1)
	if !ackOK(reformatted, want) {
		t.Error("a reprinted confidence counted as a changed verdict")
	}
	for _, bad := range [][]byte{
		bytes.Replace(want, []byte(`"tier":2`), []byte(`"tier":4`), 1),
		bytes.Replace(want, []byte(`"upload_tier":1`), []byte(`"upload_tier":0`), 1),
		want[:len(want)/2],
	} {
		if ackOK(bad, want) {
			t.Errorf("corrupted ack %q accepted", bad)
		}
	}
}

// TestStoreCheckFiresOnLostRows seals acked rows into several segments and
// checks the compacted-store scan: it must match with every segment present
// and fire when one segment is lost before compaction.
func TestStoreCheckFiresOnLostRows(t *testing.T) {
	g, err := newGenerator(7, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for j := 0; j < 2000; j++ {
		r := g.classified(j)
		for len(want) <= r.Tier {
			want = append(want, 0)
		}
		want[r.Tier]++
	}
	for _, lose := range []bool{false, true} {
		dir := t.TempDir()
		p, err := ingest.NewPipeline(ingest.PipelineConfig{Dir: dir, BatchRows: 500, MaxBatchAge: -1})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			if err := p.Submit(g.classified(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if lose {
			names, err := segmentFiles(dir)
			if err != nil || len(names) < 2 {
				t.Fatalf("segments %v (%v), want several", names, err)
			}
			if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
				t.Fatal(err)
			}
		}
		store, err := ingest.CompactWith(dir, ingest.CompactOptions{ClusterZoom: 16})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := storeTierCounts(store)
		if matched := err == nil && equalCounts(got, want); matched == lose {
			t.Errorf("lost segment %v: store counts %v (%v), acked %v", lose, got, err, want)
		}
	}
}

// flipByte corrupts one byte of every response body.
type flipByte struct{ next http.Handler }

func (f flipByte) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	f.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if r.URL.Path == "/v1/tiles" && len(body) > 0 {
		body[len(body)/2] ^= 0x01
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func tinyTiles(t *testing.T, e *env) (*tilesFixture, []tileQuery) {
	t.Helper()
	fx, err := buildTileStore(e, e.path("tiles"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fx.discard)
	qs, err := tileQueries(e, fx)
	if err != nil {
		t.Fatal(err)
	}
	return fx, qs
}

func TestTilesCheckFiresOnFlippedByte(t *testing.T) {
	e := tinyEnv(t, "tiles", false)
	fx, qs := tinyTiles(t, e)
	srv := ingest.NewServer(fx.pipe, ingest.StaticModels(fx.g.classifiers), ingest.ServerConfig{})
	defer srv.Close()
	for _, tc := range []struct {
		name    string
		handler http.Handler
		bad     bool
	}{
		{"clean", srv.Handler(), false},
		{"flipped", flipByte{srv.Handler()}, true},
	} {
		ls, err := serve(tc.handler)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(ls.base, nil)
		r := newResult()
		ph, err := queryLoop(c, qs, querySequence(e.seed, qs, 64), 0.05, nil, r)
		c.close()
		ls.close()
		if err != nil {
			t.Fatal(err)
		}
		allFailed := ph.failed == ph.queries && len(r.failures) > 0
		noneFailed := ph.failed == 0 && len(r.failures) == 0
		if (tc.bad && !allFailed) || (!tc.bad && !noneFailed) {
			t.Errorf("%s: %d of %d queries failed, failures %q", tc.name, ph.failed, ph.queries, r.failures)
		}
	}
}

// TestPushdownCheckFiresOnUnclusteredStore serves a store compacted
// without zone maps: every response still matches its reference, so only
// the check on the server's own pushdown counters can catch that nothing
// was skipped.
func TestPushdownCheckFiresOnUnclusteredStore(t *testing.T) {
	for _, clustered := range []bool{true, false} {
		e := tinyEnv(t, "tiles", false)
		if !clustered {
			e.size.clusterZ = 0
		}
		fx, qs := tinyTiles(t, e)
		srv := ingest.NewServer(fx.pipe, ingest.StaticModels(fx.g.classifiers), ingest.ServerConfig{})
		ls, err := serve(srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(ls.base, nil)
		r := newResult()
		ph, err := queryLoop(c, qs, querySequence(e.seed, qs, 64), 0.05, nil, r)
		c.close()
		ls.close()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed != 0 {
			t.Fatalf("clustered %v: %d queries failed: %q", clustered, ph.failed, r.failures)
		}
		fired := len(r.failures) > 0 && strings.Contains(strings.Join(r.failures, "\n"), "pushdown is off")
		if fired == clustered {
			t.Errorf("clustered %v: pushdown check fired %v, failures %q", clustered, fired, r.failures)
		}
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json, the metric
// tables and the workload list in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
