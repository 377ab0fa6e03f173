package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"speedctx/internal/ingest"
)

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
