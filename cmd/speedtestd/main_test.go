package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/ingest"
	"speedctx/internal/ndt7"
	"speedctx/internal/speedtest"
)

// startDaemon runs the daemon on ephemeral ports with the given extra args
// and returns the bound addresses plus a shutdown func that cancels the
// run context and reports run's error.
func startDaemon(t *testing.T, extra ...string) (Addrs, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan Addrs, 1)
	oldStarted := started
	started = func(a Addrs) { addrCh <- a }
	t.Cleanup(func() { started = oldStarted })

	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, args, io.Discard) }()

	select {
	case a := <-addrCh:
		return a, func() error {
			cancel()
			select {
			case err := <-errCh:
				return err
			case <-time.After(10 * time.Second):
				t.Fatal("daemon did not shut down after context cancel")
				return nil
			}
		}
	case err := <-errCh:
		cancel()
		t.Fatalf("daemon exited before start: %v", err)
		return Addrs{}, nil
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon never reported started")
		return Addrs{}, nil
	}
}

// TestDaemonSmoke boots the full daemon on ephemeral ports, runs one
// raw-TCP test and one NDT7 test against it, and checks context cancel
// shuts it down cleanly.
func TestDaemonSmoke(t *testing.T) {
	addrs, shutdown := startDaemon(t,
		"-ndt7", "127.0.0.1:0",
		"-rate", "80", "-perconn", "40",
	)
	if addrs.Raw == "" || addrs.NDT7 == "" {
		t.Fatalf("missing bound addresses: %+v", addrs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := speedtest.Ping(ctx, addrs.Raw); err != nil {
		t.Fatalf("ping: %v", err)
	}
	spec := speedtest.ClientSpec{Connections: 2, Duration: 400 * time.Millisecond}
	res, err := speedtest.Download(ctx, addrs.Raw, spec)
	if err != nil {
		t.Fatalf("raw download: %v", err)
	}
	if res.Bytes <= 0 || res.Throughput <= 0 {
		t.Fatalf("raw download measured nothing: %+v", res)
	}

	nres, err := ndt7.Download(ctx, addrs.NDT7, 400*time.Millisecond)
	if err != nil {
		t.Fatalf("ndt7 download: %v", err)
	}
	if nres.Bytes <= 0 {
		t.Fatalf("ndt7 download measured nothing: %+v", nres)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonIngestMode boots the daemon with -ingest, posts results, and
// checks shutdown seals and compacts the snapshot.
func TestDaemonIngestMode(t *testing.T) {
	dir := t.TempDir()
	addrs, shutdown := startDaemon(t,
		"-ingest", "127.0.0.1:0",
		"-ingest-cities", "A",
		"-ingest-dir", dir,
		"-ingest-scale", "0.001",
	)
	if addrs.Ingest == "" {
		t.Fatal("ingest address not bound")
	}
	base := "http://" + addrs.Ingest

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	row := dataset.IngestRow{
		TestID: 1, UserID: 2, City: "A", ISP: "ISP-A",
		Timestamp:    time.Unix(1609459200, 0).UTC(),
		DownloadMbps: 412.5, UploadMbps: 18.2, LatencyMs: 11.3,
	}
	for i := 0; i < 5; i++ {
		row.TestID = i
		resp, err := http.Post(base+"/v1/ingest", "application/json",
			bytes.NewReader(ingest.AppendSubmission(nil, &row)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest POST = %d: %s", resp.StatusCode, body)
		}
		var ack struct {
			Tier       int     `json:"tier"`
			UploadTier int     `json:"upload_tier"`
			Confidence float64 `json:"confidence"`
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatalf("ack: %v: %s", err, body)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	data, err := os.ReadFile(filepath.Join(dir, ingest.CompactedName))
	if err != nil {
		t.Fatalf("compacted snapshot missing: %v", err)
	}
	snap, err := dataset.DecodeCitySnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	cols := snap.Ingest
	if cols.Len() != 5 {
		t.Fatalf("snapshot rows = %d, want 5", cols.Len())
	}
	for i := 0; i < cols.Len(); i++ {
		if cols.City[i] != "A" || !strings.HasPrefix(cols.ISP[i], "ISP-") {
			t.Fatalf("row %d mangled: %q %q", i, cols.City[i], cols.ISP[i])
		}
	}

	// The shutdown compaction keeps the sealed segments' layout: a
	// zoned (v3) file whose rows sit in zone-mapped row groups, so bbox
	// queries after a restart can still skip groups.
	if ver := binary.LittleEndian.Uint16(data[4:6]); ver != dataset.SnapshotFormatVersionZoned {
		t.Fatalf("compacted format version %d, want %d (zoned)", ver, dataset.SnapshotFormatVersionZoned)
	}
	sc, err := dataset.NewBlockScanner(dataset.BytesSource(data), dataset.SelectAll(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n := sc.Counters().BlocksScanned; n == 0 {
		t.Fatal("compacted snapshot has no zone-mapped row groups")
	}
}

// refreshStatsz decodes the /statsz model block for one city.
func refreshStatsz(t *testing.T, base, city string) (generation, rowsSince uint64, sealedRows uint64) {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		SealedRows uint64 `json:"sealed_rows"`
		Models     map[string]struct {
			Generation     uint64 `json:"generation"`
			RowsSinceRefit uint64 `json:"rows_since_refit"`
		} `json:"models"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz: %v: %s", err, body)
	}
	m, ok := st.Models[city]
	if !ok {
		t.Fatalf("statsz missing model for %s: %s", city, body)
	}
	return m.Generation, m.RowsSinceRefit, st.SealedRows
}

// TestDaemonLiveRefreshMatchesColdRestart is the end-to-end refresh gate
// (ISSUE 7): boot the daemon with refresh triggers, ingest a workload while
// the per-city model refits live (no request may drop or error), probe
// /v1/classify, then cold-restart the daemon on the same segment directory
// and check the probes classify byte-identically — a restart reconstructs
// exactly the model the live refreshes converged to.
func TestDaemonLiveRefreshMatchesColdRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon twice")
	}
	dir := t.TempDir()
	daemonArgs := []string{
		"-ingest", "127.0.0.1:0",
		"-ingest-cities", "A",
		"-ingest-dir", dir,
		"-ingest-scale", "0.001",
		"-ingest-batch-rows", "25",
		"-ingest-refit-rows", "1",
	}
	addrs, shutdown := startDaemon(t, daemonArgs...)
	base := "http://" + addrs.Ingest

	// Replay a deterministic workload; every POST must succeed even as the
	// model refits underneath.
	rows := make([]dataset.IngestRow, 100)
	tbase := time.Unix(1609459200, 0).UTC()
	for i := range rows {
		rows[i] = dataset.IngestRow{
			TestID: i, UserID: i % 10, City: "A", ISP: "ISP-A",
			Timestamp:    tbase.Add(time.Duration(i) * time.Second),
			DownloadMbps: 30 + float64(i%12)*40,
			UploadMbps:   2 + float64(i%9)*5,
			LatencyMs:    8,
		}
	}
	for i := range rows {
		resp, err := http.Post(base+"/v1/ingest", "application/json",
			bytes.NewReader(ingest.AppendSubmission(nil, &rows[i])))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest POST %d = %d: %s", i, resp.StatusCode, body)
		}
	}

	// Wait until every row is sealed and folded (rows_since_refit drains).
	deadline := time.Now().Add(20 * time.Second)
	for {
		gen, pending, sealed := refreshStatsz(t, base, "A")
		if sealed == uint64(len(rows)) && pending == 0 && gen >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refresh never converged: gen=%d pending=%d sealed=%d", gen, pending, sealed)
		}
		time.Sleep(20 * time.Millisecond)
	}

	probe := func(base string, row *dataset.IngestRow) []byte {
		resp, err := http.Post(base+"/v1/classify", "application/json",
			bytes.NewReader(ingest.AppendSubmission(nil, row)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify = %d: %s", resp.StatusCode, body)
		}
		return body
	}
	liveAcks := make([][]byte, 20)
	for i := range liveAcks {
		liveAcks[i] = probe(base, &rows[i])
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Cold restart over the same (now compacted) directory: the startup
	// fold must rebuild the exact serving model.
	addrs2, shutdown2 := startDaemon(t, daemonArgs...)
	base2 := "http://" + addrs2.Ingest
	if gen, _, _ := refreshStatsz(t, base2, "A"); gen != 1 {
		t.Fatalf("cold-restart generation = %d, want 1 (startup fold)", gen)
	}
	for i := range liveAcks {
		if cold := probe(base2, &rows[i]); !bytes.Equal(cold, liveAcks[i]) {
			t.Fatalf("probe %d: cold ack %s != live ack %s", i, cold, liveAcks[i])
		}
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestIngestServerDropsStalledHeaders: the daemon's ingest listener
// (ingest.NewHTTPServer) carries header and idle timeouts, and disconnects
// a client that stalls mid-header once the header timeout (shortened here)
// expires, instead of holding the connection open.
func TestIngestServerDropsStalledHeaders(t *testing.T) {
	srv := ingest.NewHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server timeouts %v/%v, want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
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
	if _, err := io.WriteString(conn, "POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"); err != nil {
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
