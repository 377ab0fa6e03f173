package ingest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
)

// refreshFixture builds one city's serving model (classifier + base
// sketches) and the pipeline sketch specs live refresh needs.
func refreshFixture(t testing.TB) (string, map[string]*CityModel, map[string]CitySketchSpec, core.Config, []dataset.IngestRow) {
	t.Helper()
	city := experiments.FixtureCities("A")[0]
	s := experiments.NewSuite(0.001, 2021)
	s.FastFit = true
	cl, base, spec, err := s.CityServingModel(city)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*CityModel{city: {Classifier: cl, Base: base}}
	specs := map[string]CitySketchSpec{city: {Spec: spec, Tiers: len(base.Downloads)}}

	b, err := s.City(city)
	if err != nil {
		t.Fatal(err)
	}
	samples := b.OoklaSampleView()
	tbase := time.Unix(1609459200, 0).UTC()
	rows := make([]dataset.IngestRow, 100)
	for i := range rows {
		sm := samples[(i*7)%len(samples)]
		rows[i] = dataset.IngestRow{
			TestID: i, UserID: i % 20, City: city, ISP: "ISP-" + city,
			Timestamp:    tbase.Add(time.Duration(i) * time.Second),
			DownloadMbps: sm.Download, UploadMbps: sm.Upload, LatencyMs: 9.5,
		}
	}
	return city, models, specs, s.BSTConfig(), rows
}

// classifyProbe POSTs a row to the read-only /v1/classify endpoint and
// returns the raw ack bytes.
func classifyProbe(t testing.TB, ts *httptest.Server, row *dataset.IngestRow) []byte {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/classify", "application/json",
		bytes.NewReader(AppendSubmission(nil, row)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify = %d: %s", resp.StatusCode, body)
	}
	return body
}

func waitGeneration(t testing.TB, srv *Server, city string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		gen, ok := srv.Generation(city)
		if !ok {
			t.Fatalf("unknown city %q", city)
		}
		if gen >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation still %d, want >= %d", gen, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerLiveRefreshMatchesColdRestart is the refresh-loop contract:
// after the loop folds every sealed segment, the serving classifier is the
// one FitFromSketches(base ⊕ sealed) implies — and a cold restart over the
// same segment directory serves byte-identical classifications, because the
// restart's synchronous startup fold merges the exact same sketches.
func TestServerLiveRefreshMatchesColdRestart(t *testing.T) {
	city, models, specs, fitCfg, rows := refreshFixture(t)
	dir := t.TempDir()
	probes := rows[:20]

	// ---- Live run: ingest everything, let the refresh loop refit. ----
	p, err := NewPipeline(PipelineConfig{Dir: dir, BatchRows: 25, MaxBatchAge: -1, Sketches: specs})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, models, ServerConfig{RefitRows: 1, Poll: 5 * time.Millisecond, FitConfig: fitCfg})
	ts := httptest.NewServer(srv.Handler())
	for i := range rows {
		postOne(t, ts.Client(), ts.URL, &rows[i])
	}
	// 100 rows at BatchRows=25 seal exactly 4 segments; wait until the
	// refresh loop has folded all of them (each refit folds everything
	// sealed so far, so rows_since_refit drains to 0).
	deadline := time.Now().Add(15 * time.Second)
	for {
		if counts := p.SketchCounts(); counts[city] == len(rows) {
			if sk, ok := p.SealedSketchesFor(city); ok && sk.Count() == len(rows) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("sealed sketches never reached %d rows: %v", len(rows), p.SketchCounts())
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.refreshOnce(true) // deterministic final fold instead of racing the ticker
	waitGeneration(t, srv, city, 1)

	// The served model must equal a direct FitFromSketches over base ⊕
	// every sealed sketch.
	sealed, ok := p.SealedSketchesFor(city)
	if !ok {
		t.Fatal("no sealed sketches")
	}
	merged := models[city].Base.Clone()
	if err := merged.Merge(sealed); err != nil {
		t.Fatal(err)
	}
	res, err := core.FitFromSketches(merged, models[city].Classifier.Result().Catalog, fitCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewClassifier(res)

	liveAcks := make([][]byte, len(probes))
	for i := range probes {
		liveAcks[i] = classifyProbe(t, ts, &probes[i])
		var got ack
		if err := json.Unmarshal(liveAcks[i], &got); err != nil {
			t.Fatal(err)
		}
		w := want.ClassifyOne(probes[i].DownloadMbps, probes[i].UploadMbps)
		if got.Tier != w.Tier || got.UploadTier != w.UploadTier {
			t.Fatalf("probe %d: live ack %+v != direct sketch refit %+v", i, got, w)
		}
	}

	// /statsz surfaces the refresh bookkeeping.
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var statsz struct {
		Models map[string]struct {
			Generation        uint64  `json:"generation"`
			RowsSinceRefit    uint64  `json:"rows_since_refit"`
			SecondsSinceRefit float64 `json:"seconds_since_refit"`
		} `json:"models"`
	}
	if err := json.Unmarshal(body, &statsz); err != nil {
		t.Fatalf("statsz: %v: %s", err, body)
	}
	m, ok := statsz.Models[city]
	if !ok {
		t.Fatalf("statsz missing city %s: %s", city, body)
	}
	if m.Generation < 1 || m.RowsSinceRefit != 0 || m.SecondsSinceRefit < 0 {
		t.Fatalf("statsz model state = %+v: %s", m, body)
	}

	ts.Close()
	srv.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- Cold restart: prime from the same directory, fold at startup. ----
	city2, models2, specs2, fitCfg2, _ := refreshFixture(t)
	if city2 != city {
		t.Fatal("fixture city changed")
	}
	p2, err := NewPipeline(PipelineConfig{Dir: dir, BatchRows: 25, MaxBatchAge: -1, Sketches: specs2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	srv2 := NewServer(p2, models2, ServerConfig{RefitRows: 1, Poll: time.Hour, FitConfig: fitCfg2})
	defer srv2.Close()
	if gen, _ := srv2.Generation(city); gen != 1 {
		t.Fatalf("cold restart generation = %d, want 1 (startup fold)", gen)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for i := range probes {
		if coldAck := classifyProbe(t, ts2, &probes[i]); !bytes.Equal(coldAck, liveAcks[i]) {
			t.Fatalf("probe %d: cold-restart ack %s != live ack %s", i, coldAck, liveAcks[i])
		}
	}
}

// TestServerRefreshDisabledStaysFrozen pins the zero-config behavior: no
// trigger, no refresh loop, generation stays 0 however much is sealed.
func TestServerRefreshDisabledStaysFrozen(t *testing.T) {
	city, models, specs, _, rows := refreshFixture(t)
	p, err := NewPipeline(PipelineConfig{Dir: t.TempDir(), BatchRows: 25, MaxBatchAge: -1, Sketches: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv := NewServer(p, models, ServerConfig{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := range rows[:50] {
		postOne(t, ts.Client(), ts.URL, &rows[i])
	}
	if gen, _ := srv.Generation(city); gen != 0 {
		t.Fatalf("generation = %d with refresh disabled", gen)
	}
}
