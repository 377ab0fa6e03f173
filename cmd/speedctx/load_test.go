package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"speedctx/internal/dataset"
	"speedctx/internal/ingest"
)

// TestLoadCompactsZoned: a self-hosted load run ingests every row with no
// error and compacts its store into the zoned layout the segments were
// sealed in, like speedtestd does.
func TestLoadCompactsZoned(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runLoad([]string{"-rows", "3000", "-conns", "2", "-dir", dir, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report %q: %v", out.String(), err)
	}
	if rep.Rows != 3000 || rep.Errors != 0 {
		t.Fatalf("load ingested %d rows with %d errors, want 3000 and 0", rep.Rows, rep.Errors)
	}
	if want := filepath.Join(dir, ingest.CompactedName); rep.Snapshot != want {
		t.Fatalf("snapshot %q, want %q", rep.Snapshot, want)
	}
	data, err := os.ReadFile(rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if ver := binary.LittleEndian.Uint16(data[4:6]); ver != dataset.SnapshotFormatVersionZoned {
		t.Fatalf("compacted format version %d, want %d (zoned)", ver, dataset.SnapshotFormatVersionZoned)
	}
	snap, err := dataset.DecodeCitySnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Ingest.Len(); n != 3000 {
		t.Fatalf("snapshot holds %d rows, want 3000", n)
	}
}

// TestIngestServerDropsStalledHeaders: the self-hosted ingest listener that
// load serves on (ingest.NewHTTPServer) carries header and idle timeouts,
// and disconnects a client that stalls mid-header once the header timeout
// (shortened here) expires, instead of holding the connection open.
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
