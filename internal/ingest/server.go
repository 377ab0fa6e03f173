package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
)

// Server is the ingest HTTP surface. Each accepted submission is
// classified synchronously against its city's fitted BST model (the ack
// carries tier, upload tier and confidence) and then handed to the
// write-behind Pipeline.
//
// Endpoints:
//
//	POST /v1/ingest        one submission object; ack is one JSON object
//	POST /v1/ingest/batch  NDJSON, one submission per line; ack is NDJSON
//	                       of per-line results in input order
//	POST /v1/classify      classify one submission WITHOUT ingesting it —
//	                       a read-only probe of the serving model
//	GET  /v1/tiles         contextualized per-quadkey aggregates over every
//	                       sealed row (DESIGN.md §13): ?zoom=&bbox=&metric=
//	                       &format=, folded incrementally from segments via
//	                       pruned column scans and served through a
//	                       per-(tile, version) result cache
//	GET  /healthz          liveness
//	GET  /statsz           accepted/rejected/sealed counters plus per-city
//	                       model generation and staleness as JSON
//
// The batch endpoint exists for throughput: it runs the exact same
// admission step (parse → classify → Submit) per line, but amortizes the
// HTTP and syscall overhead that dominates single-POST ingest on small
// machines.
//
// Live refresh (DESIGN.md §12): when a city model carries its base tier
// sketches and a refresh trigger is configured, a background loop watches
// the pipeline's sealed-sketch counters and refits that city's BST from
// base + sealed-segment sketches (core.FitFromSketches), then publishes the
// new classifier with an atomic pointer swap — RCU-style: requests in
// flight finish against the model they loaded, new requests observe the new
// one, and no request ever blocks on a refit.
type Server struct {
	pipe   *Pipeline
	cfg    ServerConfig
	cities map[string]*cityState
	tiles  *tileServer

	accepted atomic.Uint64
	rejected atomic.Uint64

	bufPool sync.Pool // *[]byte request/response scratch

	// refitMu serializes refresh sweeps: the startup fold, the loop's
	// ticks, and any test-driven forced sweep must not interleave their
	// read-folded/refit/publish sequences on one city.
	refitMu sync.Mutex

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// CityModel is one city's serving state at startup: the fitted classifier,
// plus (optionally) the tier sketches of the rows that classifier was fit
// from. A nil Base disables live refresh for the city — the classifier then
// serves frozen, exactly as before sketch refresh existed.
type CityModel struct {
	Classifier *core.Classifier
	Base       *core.TierSketches
}

// StaticModels wraps bare classifiers as refresh-less city models — the
// PR 6 serving behavior, used by callers that don't accumulate sketches.
func StaticModels(classifiers map[string]*core.Classifier) map[string]*CityModel {
	out := make(map[string]*CityModel, len(classifiers))
	for city, cl := range classifiers {
		out[city] = &CityModel{Classifier: cl}
	}
	return out
}

// ServerConfig tunes the refresh loop. The zero value disables refresh
// entirely (frozen startup models).
type ServerConfig struct {
	// RefitRows triggers a city's refit once at least this many sealed
	// rows are not yet folded into its serving model. 0 disables the
	// row trigger.
	RefitRows int
	// RefitAge triggers a refit once the serving model is at least this
	// old AND at least one unfolded sealed row exists. 0 disables the
	// age trigger.
	RefitAge time.Duration
	// Poll is the refresh loop's check interval. Default 250ms; the
	// check is two mutex-guarded map reads per tick, refits only run
	// when a trigger fires.
	Poll time.Duration
	// FitConfig is the BST configuration refits run under. Use the same
	// config the startup models were fit with, so refreshed and cold-start
	// models are directly comparable.
	FitConfig core.Config
	// Logf, when non-nil, receives one line per refit, per refit
	// failure and per failed /v1/tiles query.
	Logf func(format string, args ...any)
	// TileCacheTiles bounds the tile result cache (0 = the tilequery
	// default).
	TileCacheTiles int
}

func (c *ServerConfig) defaults() {
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
}

// enabled reports whether any refresh trigger is configured.
func (c *ServerConfig) enabled() bool { return c.RefitRows > 0 || c.RefitAge > 0 }

func (c *ServerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// cityState is one city's live serving state. The classifier pointer is the
// RCU-published value; everything else is refresh bookkeeping.
type cityState struct {
	cl   atomic.Pointer[core.Classifier]
	base *core.TierSketches

	generation atomic.Uint64 // refits published (startup model = 0)
	folded     atomic.Uint64 // sealed rows folded into the serving model
	refitNanos atomic.Int64  // wall clock of the last publish
}

// NewServer wires the per-city models in front of a pipeline. The model
// map's keys are the city IDs submissions name in their "city" field; a
// submission for an absent city is rejected, not guessed.
//
// When refresh is enabled, cities whose pipeline already holds sealed
// sketches (primed from the segment directory) are refit synchronously
// before the server is returned — a restarted server immediately serves
// the models its sealed history implies, which is what makes a cold
// restart indistinguishable from an uninterrupted run's live refreshes.
func NewServer(pipe *Pipeline, models map[string]*CityModel, cfg ServerConfig) *Server {
	cfg.defaults()
	s := &Server{
		pipe:   pipe,
		cfg:    cfg,
		cities: make(map[string]*cityState, len(models)),
		bufPool: sync.Pool{New: func() any {
			b := make([]byte, 0, 4096)
			return &b
		}},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.tiles = newTileServer(pipe.cfg.Dir, cfg.TileCacheTiles)
	now := time.Now().UnixNano()
	for city, m := range models {
		st := &cityState{base: m.Base}
		st.cl.Store(m.Classifier)
		st.refitNanos.Store(now)
		s.cities[city] = st
	}
	if cfg.enabled() {
		s.refreshOnce(true)
		go s.refreshLoop()
	} else {
		close(s.done)
	}
	return s
}

// Close stops the refresh loop. It never touches the pipeline — the caller
// owns pipeline shutdown ordering.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

func (s *Server) refreshLoop() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.refreshOnce(false)
		}
	}
}

// refreshOnce refits every refresh-eligible city whose trigger fired (or
// every city with unfolded sealed rows, when force is set — the startup
// fold). Refits run serially: a refit is milliseconds of histogram EM, and
// serializing keeps the loop's memory peak at one merged sketch set.
func (s *Server) refreshOnce(force bool) {
	s.refitMu.Lock()
	defer s.refitMu.Unlock()
	counts := s.pipe.SketchCounts()
	if len(counts) == 0 {
		return
	}
	for city, st := range s.cities {
		if st.base == nil {
			continue
		}
		sealed, ok := counts[city]
		if !ok || uint64(sealed) <= st.folded.Load() {
			continue
		}
		pendingRows := uint64(sealed) - st.folded.Load()
		trigger := force
		if !trigger && s.cfg.RefitRows > 0 && pendingRows >= uint64(s.cfg.RefitRows) {
			trigger = true
		}
		if !trigger && s.cfg.RefitAge > 0 &&
			time.Since(time.Unix(0, st.refitNanos.Load())) >= s.cfg.RefitAge {
			trigger = true
		}
		if !trigger {
			continue
		}
		s.refitCity(city, st)
	}
}

// refitCity merges base + sealed-segment sketches, refits the BST, and
// atomically publishes the new classifier.
func (s *Server) refitCity(city string, st *cityState) {
	sealedSk, ok := s.pipe.SealedSketchesFor(city)
	if !ok {
		return
	}
	merged := st.base.Clone()
	if err := merged.Merge(sealedSk); err != nil {
		s.cfg.logf("ingest: refit %s: merge sketches: %v", city, err)
		return
	}
	cat := st.cl.Load().Result().Catalog
	res, err := core.FitFromSketches(merged, cat, s.cfg.FitConfig)
	if err != nil {
		s.cfg.logf("ingest: refit %s: %v", city, err)
		return
	}
	st.cl.Store(core.NewClassifier(res))
	st.folded.Store(uint64(sealedSk.Count()))
	gen := st.generation.Add(1)
	st.refitNanos.Store(time.Now().UnixNano())
	s.cfg.logf("ingest: refit %s: generation %d over %d sealed rows", city, gen, sealedSk.Count())
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.handleOne(true))
	mux.HandleFunc("/v1/ingest/batch", s.handleBatch)
	mux.HandleFunc("/v1/classify", s.handleOne(false))
	mux.HandleFunc("/v1/tiles", s.handleTiles)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/statsz", s.handleStats)
	return mux
}

// Ingest listener timeouts. A client that has not finished its request
// headers within readHeaderTimeout, or leaves a keep-alive connection idle
// for idleTimeout, is disconnected. Bodies and responses stay unbounded:
// large batch uploads and tile renders may take longer than any fixed
// limit.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer wraps an ingest handler in the listener's server, with the
// ingest listener timeouts.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// maxBodyBytes bounds a request body; large enough for a ~64k-row batch.
const maxBodyBytes = 32 << 20

// readPost slurps a POST body into pooled scratch. The returned release
// func must be called after the bytes are no longer referenced. On a wrong
// method or an unreadable body it answers the request itself and returns
// ok=false.
func (s *Server) readPost(w http.ResponseWriter, r *http.Request) (body []byte, release func(), ok bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, nil, false
	}
	bp := s.bufPool.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := io.Copy(buf, io.LimitReader(r.Body, maxBodyBytes+1))
	release = func() {
		b := buf.Bytes()
		*bp = b[:0]
		s.bufPool.Put(bp)
	}
	if err == nil && buf.Len() > maxBodyBytes {
		err = errors.New("ingest: request body too large")
	}
	if err != nil {
		release()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, nil, false
	}
	return buf.Bytes(), release, true
}

// classify validates one parsed row against the value domain (DESIGN.md
// §11) and its city's serving model, and stamps the assignment fields. The
// classifier is loaded once per row; a concurrent refresh swap simply means
// the next row sees the newer model.
func (s *Server) classify(row *dataset.IngestRow) error {
	st, ok := s.cities[row.City]
	if !ok {
		return fmt.Errorf("ingest: unknown city %q", row.City)
	}
	// The parser admits no NaN or infinity, so this leaves every value
	// finite and non-negative.
	if row.DownloadMbps < 0 || row.UploadMbps < 0 || row.LatencyMs < 0 {
		return errors.New("ingest: negative download_mbps, upload_mbps or latency_ms")
	}
	a := st.cl.Load().ClassifyOne(row.DownloadMbps, row.UploadMbps)
	row.UploadTier = a.UploadTier
	row.Tier = a.Tier
	row.Confidence = a.Confidence
	return nil
}

// admit is the single accept/reject decision for all three endpoints:
// parse, classify, and — when ingest is set — submit one submission,
// counting the outcome as accepted or rejected. On error it returns the
// status a single-row endpoint answers with: 400 for a malformed
// submission, 422 for one outside the domain or of an unknown city, and
// 503 once the pipeline is closed. The read-only probe (ingest unset)
// counts nothing.
func (s *Server) admit(line []byte, row *dataset.IngestRow, ingest bool) (int, error) {
	status, err := http.StatusBadRequest, parseSubmission(line, row)
	if err == nil {
		status, err = http.StatusUnprocessableEntity, s.classify(row)
	}
	if err == nil && ingest {
		status, err = http.StatusServiceUnavailable, s.pipe.Submit(*row)
		if errors.Is(err, ErrClosed) {
			// A failed seal's error names server paths; Close returns it,
			// and clients see only that the pipeline is closed.
			err = ErrClosed
		}
	}
	if err == nil {
		status = http.StatusOK
	}
	if ingest {
		if err != nil {
			s.rejected.Add(1)
		} else {
			s.accepted.Add(1)
		}
	}
	return status, err
}

// handleOne serves /v1/ingest (ingest set) and the read-only probe
// /v1/classify, which classifies exactly like /v1/ingest but never submits
// the row, so probing a model does not feed the very sketches the model
// refreshes from.
func (s *Server) handleOne(ingest bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, release, ok := s.readPost(w, r)
		if !ok {
			return
		}
		defer release()
		var row dataset.IngestRow
		if status, err := s.admit(body, &row, ingest); err != nil {
			http.Error(w, err.Error(), status)
			return
		}
		s.writeAck(w, row)
	}
}

// writeAck renders one classified row's ack object through the buffer pool.
func (s *Server) writeAck(w http.ResponseWriter, row dataset.IngestRow) {
	ack := s.bufPool.Get().(*[]byte)
	out := appendAck((*ack)[:0], core.Assignment{
		UploadTier: row.UploadTier, Tier: row.Tier, Confidence: row.Confidence,
	})
	out = append(out, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
	*ack = out[:0]
	s.bufPool.Put(ack)
}

// handleBatch ingests NDJSON. Every line gets a same-position NDJSON
// response line — an ack for accepted rows, {"error":...} for rejected
// ones — so a client can pair results without ids. A full batch still
// blocks (backpressure through the batch too). A pipeline that closes
// before the first line is admitted fails the request with 503; once a
// line was admitted, the acks stand and the closed line and every later
// one get an in-position error, so a client retries only those lines.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, release, ok := s.readPost(w, r)
	if !ok {
		return
	}
	defer release()
	ack := s.bufPool.Get().(*[]byte)
	out := (*ack)[:0]
	admitted := false
	for len(body) > 0 {
		line := body
		if nl := bytes.IndexByte(body, '\n'); nl >= 0 {
			line, body = body[:nl], body[nl+1:]
		} else {
			body = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var row dataset.IngestRow
		status, err := s.admit(line, &row, true)
		switch {
		case errors.Is(err, ErrClosed) && !admitted:
			// Closed pipeline, nothing admitted: nothing later can be
			// accepted either.
			http.Error(w, err.Error(), status)
			*ack = out[:0]
			s.bufPool.Put(ack)
			return
		case err != nil:
			out = appendError(out, err)
		default:
			admitted = true
			out = appendAck(out, core.Assignment{
				UploadTier: row.UploadTier, Tier: row.Tier, Confidence: row.Confidence,
			})
		}
		out = append(out, '\n')
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(out)
	*ack = out[:0]
	s.bufPool.Put(ack)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	queued, sealedRows, segments := s.pipe.Stats()
	counts := s.pipe.SketchCounts()
	now := time.Now()
	var out []byte
	out = append(out, `{"accepted":`...)
	out = strconv.AppendUint(out, s.accepted.Load(), 10)
	out = append(out, `,"rejected":`...)
	out = strconv.AppendUint(out, s.rejected.Load(), 10)
	out = append(out, `,"queued":`...)
	out = strconv.AppendUint(out, queued, 10)
	out = append(out, `,"sealed_rows":`...)
	out = strconv.AppendUint(out, sealedRows, 10)
	out = append(out, `,"segments":`...)
	out = strconv.AppendUint(out, segments, 10)
	out = append(out, ',')
	out = appendTileStats(out, s.tiles.stats())
	out = append(out, `,"models":{`...)
	cities := make([]string, 0, len(s.cities))
	for city := range s.cities {
		cities = append(cities, city)
	}
	sort.Strings(cities)
	for i, city := range cities {
		st := s.cities[city]
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendQuote(out, city)
		out = append(out, `:{"generation":`...)
		out = strconv.AppendUint(out, st.generation.Load(), 10)
		out = append(out, `,"rows_since_refit":`...)
		pending := uint64(0)
		if sealed := uint64(counts[city]); sealed > st.folded.Load() {
			pending = sealed - st.folded.Load()
		}
		out = strconv.AppendUint(out, pending, 10)
		out = append(out, `,"seconds_since_refit":`...)
		out = strconv.AppendFloat(out, now.Sub(time.Unix(0, st.refitNanos.Load())).Seconds(), 'f', 3, 64)
		out = append(out, '}')
	}
	out = append(out, '}', '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

// Counts reports the server's accept/reject totals.
func (s *Server) Counts() (accepted, rejected uint64) {
	return s.accepted.Load(), s.rejected.Load()
}

// Generation reports how many refits city has published (0 = startup
// model), with ok=false for an unknown city.
func (s *Server) Generation(city string) (gen uint64, ok bool) {
	st, ok := s.cities[city]
	if !ok {
		return 0, false
	}
	return st.generation.Load(), true
}
