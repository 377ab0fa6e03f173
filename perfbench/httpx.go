package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// liveServer serves a handler over loopback HTTP, as speedtestd does.
type liveServer struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *liveServer) close() {
	s.hs.Close()
	<-s.done
}

// client is the closed-loop load generator: one goroutine, one keep-alive
// connection, the next request only after the previous response is read.
type client struct {
	hc   *http.Client
	base string
	t    *tracer
	reqs uint64
	buf  bytes.Buffer
}

func newClient(base string, t *tracer) *client {
	return &client{
		hc: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
		base: base, t: t,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned latency
// spans sending the request to reading the last response byte; the
// response bytes are valid until the next call. Traced, the round trip is
// a top-level span whose id and request id travel in headers so the
// handler span can link to it.
func (c *client) do(method, path string, body []byte, tag string) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	var sp openSpan
	if c.t != nil {
		c.reqs++
		sp = c.t.begin("http.roundtrip", tag, 0, c.reqs)
		req.Header.Set(headerRequestID, strconv.FormatUint(c.reqs, 10))
		req.Header.Set(headerParentSpan, strconv.FormatUint(sp.id(), 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.end()
		return 0, nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	sp.end()
	return resp.StatusCode, c.buf.Bytes(), lat, err
}

// statsz is the subset of the server's /statsz the benchmark reads.
type statsz struct {
	Accepted   uint64 `json:"accepted"`
	Rejected   uint64 `json:"rejected"`
	SealedRows uint64 `json:"sealed_rows"`
	Segments   uint64 `json:"segments"`
	TileCache  struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"tile_cache"`
	Pushdown struct {
		Queries  uint64 `json:"queries"`   // bbox queries served by the pushdown scan
		SkipHits uint64 `json:"skip_hits"` // of those, queries that skipped a row group
	} `json:"pushdown"`
}

// stats fetches /statsz outside any span.
func (c *client) stats() (statsz, error) {
	var st statsz
	t := c.t
	c.t = nil
	status, body, _, err := c.do(http.MethodGet, "/statsz", nil, "")
	c.t = t
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("statsz: status %d", status)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	return st, nil
}
