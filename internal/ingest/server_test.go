package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/experiments"
)

// testClassifiers fits the suite's city models once per test binary; the
// suite's fit cache makes repeat calls cheap.
var (
	classifierOnce sync.Once
	classifierMap  map[string]*core.Classifier
	classifierErr  error
	classifierRows []dataset.IngestRow
)

func loadClassifiers(t testing.TB) (map[string]*core.Classifier, []dataset.IngestRow) {
	classifierOnce.Do(func() {
		s := experiments.NewSuite(0.001, 2021)
		s.FastFit = true
		classifierMap = map[string]*core.Classifier{}
		base := time.Unix(1609459200, 0).UTC()
		// Selective fixture seeding: SPEEDCTX_TEST_CITIES narrows which
		// city models this package builds (suite fits dominate test time).
		for _, id := range experiments.FixtureCities("A", "B") {
			cl, err := s.CityClassifier(id)
			if err != nil {
				classifierErr = err
				return
			}
			classifierMap[id] = cl
			b, err := s.City(id)
			if err != nil {
				classifierErr = err
				return
			}
			samples := b.OoklaSampleView()
			for j := 0; j < 300; j++ {
				sm := samples[j%len(samples)]
				classifierRows = append(classifierRows, dataset.IngestRow{
					TestID:       len(classifierRows),
					UserID:       j % 50,
					City:         id,
					ISP:          "ISP-" + id,
					Timestamp:    base.Add(time.Duration(len(classifierRows)) * time.Second),
					DownloadMbps: sm.Download,
					UploadMbps:   sm.Upload,
					LatencyMs:    float64(j%40) + 0.5,
				})
			}
		}
	})
	if classifierErr != nil {
		t.Fatal(classifierErr)
	}
	return classifierMap, classifierRows
}

// startServer spins up a Server over a fresh pipeline in dir.
func startServer(t testing.TB, dir string, cfg PipelineConfig, cls map[string]*core.Classifier) (*httptest.Server, *Server, *Pipeline) {
	t.Helper()
	cfg.Dir = dir
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, StaticModels(cls), ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	return ts, srv, p
}

func postOne(t testing.TB, client *http.Client, url string, row *dataset.IngestRow) []byte {
	t.Helper()
	resp, err := client.Post(url+"/v1/ingest", "application/json",
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
		t.Fatalf("POST /v1/ingest = %d: %s", resp.StatusCode, body)
	}
	return body
}

type ack struct {
	Tier       int     `json:"tier"`
	UploadTier int     `json:"upload_tier"`
	Confidence float64 `json:"confidence"`
	Error      string  `json:"error"`
}

// TestServerAckMatchesClassifier checks the HTTP ack carries exactly the
// assignment ClassifyOne computes for the same tuple.
func TestServerAckMatchesClassifier(t *testing.T) {
	cls, rows := loadClassifiers(t)
	ts, _, p := startServer(t, t.TempDir(), PipelineConfig{}, cls)
	defer ts.Close()
	defer p.Close()
	for _, i := range []int{0, 1, 17, 299, 300, 599} {
		if i >= len(rows) {
			continue // fewer fixture cities selected via SPEEDCTX_TEST_CITIES
		}
		row := rows[i]
		var got ack
		if err := json.Unmarshal(postOne(t, ts.Client(), ts.URL, &row), &got); err != nil {
			t.Fatal(err)
		}
		want := cls[row.City].ClassifyOne(row.DownloadMbps, row.UploadMbps)
		if got.Tier != want.Tier || got.UploadTier != want.UploadTier ||
			math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
			t.Fatalf("row %d ack = %+v, want %+v", i, got, want)
		}
	}
}

// serveAndCompact drives rows through a server (single or batch endpoint,
// any number of connections), shuts down, compacts, and returns the
// canonical snapshot bytes.
func serveAndCompact(t *testing.T, rows []dataset.IngestRow, cfg PipelineConfig, cls map[string]*core.Classifier, conns, batch int) []byte {
	t.Helper()
	dir := t.TempDir()
	ts, srv, p := startServer(t, dir, cfg, cls)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			if batch <= 1 {
				for i := w; i < len(rows); i += conns {
					postOne(t, client, ts.URL, &rows[i])
				}
				return
			}
			var buf []byte
			flush := func() {
				if len(buf) == 0 {
					return
				}
				resp, err := client.Post(ts.URL+"/v1/ingest/batch", "application/x-ndjson", bytes.NewReader(buf))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch POST = %d: %s", resp.StatusCode, body)
				}
				buf = buf[:0]
			}
			n := 0
			for i := w; i < len(rows); i += conns {
				buf = AppendSubmission(buf, &rows[i])
				buf = append(buf, '\n')
				if n++; n%batch == 0 {
					flush()
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	ts.Close()
	if acc, rej := srv.Counts(); acc != uint64(len(rows)) || rej != 0 {
		t.Fatalf("accepted=%d rejected=%d, want %d/0", acc, rej, len(rows))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := CompactWith(dir, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestServerDeterministicSnapshot is the end-to-end determinism gate: the
// compacted snapshot after draining N results through the full HTTP path
// is byte-identical to a serial drain, at every combination of batch size,
// age flush, connection count, and endpoint.
func TestServerDeterministicSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end determinism matrix")
	}
	cls, rows := loadClassifiers(t)
	want := serveAndCompact(t, rows, PipelineConfig{MaxBatchAge: -1}, cls, 1, 1)
	variants := []struct {
		name  string
		cfg   PipelineConfig
		conns int
		batch int
	}{
		{"batch64-conns8-single", PipelineConfig{BatchRows: 64, MaxBatchAge: -1}, 8, 1},
		{"batch100-conns8-ndjson64", PipelineConfig{BatchRows: 100, MaxBatchAge: -1}, 8, 64},
		{"batch33-age1ms-conns4-ndjson7", PipelineConfig{BatchRows: 33, MaxBatchAge: time.Millisecond}, 4, 7},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got := serveAndCompact(t, rows, v.cfg, cls, v.conns, v.batch)
			if !bytes.Equal(got, want) {
				t.Fatalf("snapshot differs from serial reference (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

func TestServerRejections(t *testing.T) {
	cls, rows := loadClassifiers(t)
	ts, srv, p := startServer(t, t.TempDir(), PipelineConfig{}, cls)
	defer ts.Close()
	defer p.Close()

	// Unknown city → 422.
	bad := rows[0]
	bad.City = "Z"
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest", "application/json",
		bytes.NewReader(AppendSubmission(nil, &bad)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown city status = %d, want 422", resp.StatusCode)
	}

	// Malformed body → 400.
	resp, err = ts.Client().Post(ts.URL+"/v1/ingest", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed status = %d, want 400", resp.StatusCode)
	}

	// Batch: bad line gets an error ack in position, good lines proceed.
	var buf []byte
	buf = AppendSubmission(buf, &rows[1])
	buf = append(buf, '\n')
	buf = append(buf, "{broken}\n"...)
	buf = AppendSubmission(buf, &bad)
	buf = append(buf, '\n')
	buf = AppendSubmission(buf, &rows[2])
	buf = append(buf, '\n')
	resp, err = ts.Client().Post(ts.URL+"/v1/ingest/batch", "application/x-ndjson", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 4 {
		t.Fatalf("batch acks = %d lines, want 4:\n%s", len(lines), body)
	}
	for i, wantErr := range []bool{false, true, true, false} {
		var a ack
		if err := json.Unmarshal([]byte(lines[i]), &a); err != nil {
			t.Fatalf("ack line %d: %v", i, err)
		}
		if (a.Error != "") != wantErr {
			t.Fatalf("ack line %d = %s, wantErr=%v", i, lines[i], wantErr)
		}
	}

	if acc, rej := srv.Counts(); acc != 2 || rej != 4 {
		t.Fatalf("counts = %d/%d, want accepted 2, rejected 4", acc, rej)
	}

	// statsz reflects the counters.
	resp, err = ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Accepted uint64 `json:"accepted"`
		Rejected uint64 `json:"rejected"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("statsz: %v: %s", err, body)
	}
	if stats.Accepted != 2 || stats.Rejected != 4 {
		t.Fatalf("statsz = %s, want accepted 2, rejected 4", body)
	}

	// healthz answers.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestServerBatchClosedMidBody: a pipeline that closes after two lines of
// a three-line batch were admitted keeps the request's acks positional —
// 200, two acks, then an in-position error for the closed line — and the
// two admitted rows are sealed, so a client retries only the third line.
// The sealer stays parked until Close has begun, so the third Submit
// cannot slip into the batch.
func TestServerBatchClosedMidBody(t *testing.T) {
	cls, rows := loadClassifiers(t)
	p, err := newPipeline(PipelineConfig{Dir: t.TempDir(), BatchRows: 2, MaxBatchAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, StaticModels(cls), ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = AppendSubmission(buf, &rows[i])
		buf = append(buf, '\n')
	}
	type reply struct {
		code int
		body []byte
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/ingest/batch", "application/x-ndjson", bytes.NewReader(buf))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		replies <- reply{resp.StatusCode, body, err}
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("two admitted lines", func() bool { queued, _, _ := p.Stats(); return queued == 2 })
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	waitFor("Close to begin", func() bool { p.mu.Lock(); defer p.mu.Unlock(); return p.closed })
	go p.sealer()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	r := <-replies
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("batch closed mid-body = %d: %s; want 200 with positional acks", r.code, r.body)
	}
	lines := strings.Split(strings.TrimSpace(string(r.body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("batch acks = %d lines, want 3:\n%s", len(lines), r.body)
	}
	for i, wantErr := range []bool{false, false, true} {
		var a ack
		if err := json.Unmarshal([]byte(lines[i]), &a); err != nil {
			t.Fatalf("ack line %d: %v", i, err)
		}
		if (a.Error != "") != wantErr {
			t.Fatalf("ack line %d = %s, wantErr=%v", i, lines[i], wantErr)
		}
	}
	if acc, rej := srv.Counts(); acc != 2 || rej != 1 {
		t.Fatalf("counts = %d/%d, want accepted 2, rejected 1", acc, rej)
	}
	if _, sealed, _ := p.Stats(); sealed != 2 {
		t.Fatalf("sealed %d rows, want the 2 admitted", sealed)
	}

	// Once closed, a batch with nothing admitted fails whole.
	resp, err := ts.Client().Post(ts.URL+"/v1/ingest/batch", "application/x-ndjson", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch after close = %d, want 503", resp.StatusCode)
	}
}

// TestServerSealFailureHidesPaths checks that once a seal fails, every
// ingest endpoint answers 503 with ErrClosed's fixed text: the seal error,
// which names the segment directory, stays with Close.
func TestServerSealFailureHidesPaths(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := filepath.Join(t.TempDir(), "segments")
	p, err := NewPipeline(PipelineConfig{Dir: dir, BatchRows: 2, MaxBatchAge: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(p, StaticModels(cls), ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	post := func(path string, row *dataset.IngestRow) (int, string) {
		t.Helper()
		body := append(AppendSubmission(nil, row), '\n')
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	for i := 0; i < 2; i++ {
		if code, body := post("/v1/ingest", &rows[i]); code != http.StatusOK {
			t.Fatalf("ingest %d before the failed seal = %d: %s", i, code, body)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		failed := p.sealErr != nil
		p.mu.Unlock()
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the seal into a removed directory never failed")
		}
	}
	for _, path := range []string{"/v1/ingest", "/v1/ingest/batch"} {
		code, body := post(path, &rows[2])
		if code != http.StatusServiceUnavailable || strings.TrimSpace(body) != ErrClosed.Error() || strings.Contains(body, dir) {
			t.Fatalf("%s after the failed seal = %d %q, want 503 %q", path, code, body, ErrClosed.Error())
		}
	}
	if err := p.Close(); err == nil || !strings.Contains(err.Error(), "seal segment 0") {
		t.Fatalf("Close = %v, want the seal error", err)
	}
}

// TestServerRejectsNegativeValues checks the value domain: a negative
// download, upload or latency is a 422 on /v1/ingest and /v1/classify, and
// an in-position error on /v1/ingest/batch that leaves the acks of the
// other lines where they were. Only the ingest endpoints count rejects, and
// no rejected row reaches a segment.
func TestServerRejectsNegativeValues(t *testing.T) {
	cls, rows := loadClassifiers(t)
	ts, srv, p := startServer(t, t.TempDir(), PipelineConfig{}, cls)
	defer ts.Close()
	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, out
	}
	negatives := make([]dataset.IngestRow, 3)
	for i := range negatives {
		negatives[i] = rows[i]
	}
	negatives[0].DownloadMbps = -5
	negatives[1].UploadMbps = -0.5
	negatives[2].LatencyMs = -1
	for i := range negatives {
		for _, path := range []string{"/v1/ingest", "/v1/classify"} {
			if status, body := post(path, AppendSubmission(nil, &negatives[i])); status != http.StatusUnprocessableEntity {
				t.Fatalf("POST %s with negative field %d = %d: %s, want 422", path, i, status, body)
			}
		}
	}

	// Batch: good, negative, good, negative, good. Each good line's ack
	// must equal the probe's ack for the same row.
	lines := []dataset.IngestRow{rows[3], negatives[0], rows[4], negatives[2], rows[5]}
	var buf []byte
	for i := range lines {
		buf = AppendSubmission(buf, &lines[i])
		buf = append(buf, '\n')
	}
	status, body := post("/v1/ingest/batch", buf)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d: %s", status, body)
	}
	acks := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(acks) != len(lines) {
		t.Fatalf("batch acks = %d lines, want %d:\n%s", len(acks), len(lines), body)
	}
	for i, line := range acks {
		if i%2 == 1 {
			var a ack
			if err := json.Unmarshal([]byte(line), &a); err != nil || a.Error == "" {
				t.Fatalf("ack line %d = %s, want an error (%v)", i, line, err)
			}
			continue
		}
		if _, want := post("/v1/classify", AppendSubmission(nil, &lines[i])); strings.TrimSpace(string(want)) != line {
			t.Fatalf("ack line %d = %s, want %s", i, line, want)
		}
	}

	if acc, rej := srv.Counts(); acc != 3 || rej != 5 {
		t.Fatalf("counts = %d/%d, want accepted 3, rejected 5", acc, rej)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, sealed, _ := p.Stats(); sealed != 3 {
		t.Fatalf("sealed %d rows, want the 3 accepted ones", sealed)
	}
}

// TestServerSnapshotLoadsAsCitySnapshot checks the compacted ingest
// snapshot decodes through the standard store codec and carries the
// classification stamped at ingest time.
func TestServerSnapshotLoadsAsCitySnapshot(t *testing.T) {
	cls, rows := loadClassifiers(t)
	dir := t.TempDir()
	ts, _, p := startServer(t, dir, PipelineConfig{}, cls)
	for i := range rows[:50] {
		postOne(t, ts.Client(), ts.URL, &rows[i])
	}
	ts.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := CompactWith(dir, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := dataset.DecodeCitySnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	cols := snap.Ingest
	if cols.Len() != 50 {
		t.Fatalf("snapshot rows = %d, want 50", cols.Len())
	}
	for i := 0; i < cols.Len(); i++ {
		want := cls[cols.City[i]].ClassifyOne(cols.Download[i], cols.Upload[i])
		if cols.Tier[i] != want.Tier || cols.UploadTier[i] != want.UploadTier ||
			math.Float64bits(cols.Confidence[i]) != math.Float64bits(want.Confidence) {
			t.Fatalf("row %d: stored assignment (%d,%d,%v) != recomputed %+v",
				i, cols.Tier[i], cols.UploadTier[i], cols.Confidence[i], want)
		}
	}
}

// TestIngestServerDropsStalledHeaders: the ingest listener disconnects a
// client that stalls mid-header once the header timeout (shortened here)
// expires, instead of holding the connection open.
func TestIngestServerDropsStalledHeaders(t *testing.T) {
	srv := NewHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts %v/%v, want %v/%v", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/ingest/batch HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server held a mid-header connection open past its header timeout")
	}
}

// TestOversizeBodyIs413: a body one byte over maxBodyBytes is refused as
// too large, not as malformed, on both ingest endpoints.
func TestOversizeBodyIs413(t *testing.T) {
	ts, _, p := startServer(t, t.TempDir(), PipelineConfig{}, nil)
	defer ts.Close()
	defer p.Close()
	body := bytes.Repeat([]byte{'\n'}, maxBodyBytes+1)
	for _, path := range []string{"/v1/ingest", "/v1/ingest/batch"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes = %d, want 413", path, len(body), resp.StatusCode)
		}
	}
}

// TestPutBufDropsOversize: a request or ack buffer that grew past
// maxPooledBytes never comes back out of the pool.
func TestPutBufDropsOversize(t *testing.T) {
	s := &Server{bufPool: sync.Pool{New: func() any { return new([]byte) }}}
	bp := new([]byte)
	s.putBuf(bp, make([]byte, 0, maxPooledBytes+1))
	for i := 0; i < 4; i++ {
		if s.bufPool.Get().(*[]byte) == bp {
			t.Fatal("a buffer over maxPooledBytes went back to the pool")
		}
	}
}
