package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Outside-in tracing. The benchmark cannot see inside the program, so it
// records a span around every call it makes into a layer: the HTTP client
// round trip, the server handler (the benchmark wraps Server.Handler), and
// direct calls into ingest, dataset, tilequery, core and experiments. Spans
// of one HTTP request share a request id, and the handler span links to the
// client span that caused it through two request headers. Spans stay in
// memory and are written as JSON lines when the run ends.

// span is one timed call into a layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 = top-level
	Req    uint64 `json:"req,omitempty"`    // request id shared across layers
	Name   string `json:"name"`             // "<layer>.<operation>"
	Tag    string `json:"tag,omitempty"`    // query class or city
	Start  int64  `json:"start_ns"`         // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span. On a nil tracer it returns an inert openSpan.
func (t *tracer) begin(name, tag string, parent, req uint64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t, span{
		ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Tag: tag,
		Start: int64(time.Since(t.epoch)),
	}}
}

// id is the span's id, for children's parent links (0 when untraced).
func (o openSpan) id() uint64 { return o.s.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// Request headers carrying the trace context from client to handler.
const (
	headerRequestID  = "X-Request-Id"
	headerParentSpan = "X-Parent-Span"
)

// tracedHandler spans each ServeHTTP call of the wrapped handler, linked to
// the client span named in the request headers.
type tracedHandler struct {
	next http.Handler
	t    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseUint(r.Header.Get(headerRequestID), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get(headerParentSpan), 10, 64)
	sp := h.t.begin("ingest.handler", r.URL.Path, parent, req)
	h.next.ServeHTTP(w, r)
	sp.end()
}

// wrap returns next, spanned when t is non-nil.
func (t *tracer) wrap(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return tracedHandler{next, t}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSet indexes recorded spans for the per-layer derivations.
type spanSet struct {
	all      []span
	children map[uint64][]int
}

func indexSpans(spans []span) *spanSet {
	ss := &spanSet{all: spans, children: map[uint64][]int{}}
	for i, s := range spans {
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], i)
		}
	}
	return ss
}

// durations returns the durations (ms) of spans named name (and tagged
// tag, when tag is non-empty).
func (ss *spanSet) durations(name, tag string) []float64 {
	var out []float64
	for i := range ss.all {
		if s := &ss.all[i]; s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns, for each span named name, its duration minus the part
// of it its child spans cover (ms).
func (ss *spanSet) selfTimes(name string) []float64 {
	var out []float64
	for i := range ss.all {
		s := &ss.all[i]
		if s.Name != name {
			continue
		}
		var kids [][2]int64
		for _, k := range ss.children[s.ID] {
			c := ss.all[k]
			kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		out = append(out, ms(s.dur()-time.Duration(unionLen(kids))))
	}
	return out
}

// topLevelCover returns how much of the windows the top-level spans cover.
func (ss *spanSet) topLevelCover(windows [][2]int64) time.Duration {
	var top [][2]int64
	for _, s := range ss.all {
		if s.Parent == 0 {
			top = append(top, [2]int64{s.Start, s.End})
		}
	}
	var covered int64
	for _, w := range windows {
		var clipped [][2]int64
		for _, iv := range top {
			if lo, hi := max(iv[0], w[0]), min(iv[1], w[1]); lo < hi {
				clipped = append(clipped, [2]int64{lo, hi})
			}
		}
		covered += unionLen(clipped)
	}
	return time.Duration(covered)
}

// unionLen is the total length of the union of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, lo, hi int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if !open || iv[0] > hi {
			if open {
				total += hi - lo
			}
			lo, hi, open = iv[0], iv[1], true
			continue
		}
		hi = max(hi, iv[1])
	}
	if open {
		total += hi - lo
	}
	return total
}

// window is one timed region, in the tracer's clock.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// coverage sets trace.uncovered_share: the share of the timed windows no
// top-level span covers.
func coverage(r *result, ss *spanSet, windows [][2]int64) {
	var wall int64
	for _, w := range windows {
		wall += w[1] - w[0]
	}
	if wall <= 0 {
		return
	}
	cov := ss.topLevelCover(windows)
	r.set("trace.uncovered_share", 1-float64(cov)/float64(wall),
		fmt.Sprintf("of %.3f s timed wall, %d top-level spans", float64(wall)/1e9, countTop(ss)))
}

func countTop(ss *spanSet) int {
	n := 0
	for _, s := range ss.all {
		if s.Parent == 0 {
			n++
		}
	}
	return n
}
