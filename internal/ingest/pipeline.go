// Package ingest closes the paper's production loop: a high-concurrency
// HTTP service that accepts completed speed-test results, contextualizes
// each <download, upload> tuple against the fitted per-city BST model at
// ingest time (core.Classifier — no refit, no per-request allocation), and
// persists the accepted rows into the PR 5 .sxc snapshot store through an
// asynchronous write-behind batcher.
//
// Architecture (DESIGN.md §11):
//
//	HTTP handlers ──► sharded bounded queues ──► batcher ──► sealed .sxc segments
//	 (classify)          (backpressure)        (write-behind)   (sort-on-seal)
//
// Queues are bounded channels: when the batcher falls behind, producers
// block — backpressure, never drops — which surfaces to clients as slower
// acks, exactly like a loaded collector should behave. Sealed segments are
// written with the store's atomic tempfile+rename discipline and are
// internally sorted by a stable total key; CompactWith merges every segment
// into one canonical snapshot whose bytes depend only on the ingested row
// set — not on worker count, shard count, queue depth, or arrival
// interleaving.
package ingest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/opendata"
)

// PipelineConfig tunes the write-behind path. The zero value selects the
// defaults noted on each field.
type PipelineConfig struct {
	// Dir is the segment directory. Required.
	Dir string
	// BatchRows seals a segment once this many rows are pending.
	// Default 65536.
	BatchRows int
	// MaxBatchAge seals a partial segment once its oldest row has waited
	// this long, bounding ingest-to-durable latency under a trickle.
	// Default 2s; negative disables age-based sealing.
	MaxBatchAge time.Duration
	// QueueShards is the number of bounded queues between the handlers
	// and the batcher. Default 4.
	QueueShards int
	// QueueDepth is each shard's capacity in rows. Default 4096.
	QueueDepth int
	// Sketches declares the per-city sketch grids (DESIGN.md §12). For
	// each listed city the pipeline accumulates mergeable tier sketches:
	// every sealed segment embeds the sketches of its own rows (bucketed
	// by the persisted UploadTier verdicts), and the pipeline maintains
	// the running merge of all sealed segments in memory — primed from
	// the directory's existing segments at startup, so a restart observes
	// exactly the sketch state a live run would hold. Empty disables
	// sketch accumulation (segments then carry rows only).
	Sketches map[string]CitySketchSpec
}

// CitySketchSpec declares one city's sketch shape: the grid spec plus the
// number of catalog upload tiers (one download sketch each).
type CitySketchSpec struct {
	Spec  core.SketchSpec
	Tiers int
}

func (c *PipelineConfig) defaults() {
	if c.BatchRows <= 0 {
		c.BatchRows = 65536
	}
	if c.MaxBatchAge == 0 {
		c.MaxBatchAge = 2 * time.Second
	}
	if c.QueueShards <= 0 {
		c.QueueShards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
}

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("ingest: pipeline closed")

// Pipeline is the accepted-row path: sharded bounded queues feeding a
// write-behind batcher that seals sorted .sxc segments.
type Pipeline struct {
	cfg    PipelineConfig
	queues []chan dataset.IngestRow
	rr     atomic.Uint64 // round-robin enqueue cursor

	// closeMu serializes Submit against Close: Submits hold it shared, so
	// Close's exclusive acquire waits for in-flight enqueues before the
	// channels close.
	closeMu sync.RWMutex
	closed  bool

	mu       sync.Mutex // guards pending, oldest, segSeq, firstErr
	pending  []dataset.IngestRow
	oldest   time.Time
	segSeq   int
	firstErr error

	// sketchMu guards sealedSk, the running merge of every sealed
	// segment's sketches (only cities listed in cfg.Sketches).
	sketchMu sync.Mutex
	sealedSk map[string]*core.TierSketches

	drainers sync.WaitGroup
	ageStop  chan struct{}
	ageDone  chan struct{}

	rows   atomic.Uint64 // rows handed to the batcher
	seals  atomic.Uint64 // segments sealed
	sealed atomic.Uint64 // rows sealed to disk
}

// NewPipeline starts the shard drainers and the age flusher.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	p, err := newPipeline(cfg, true)
	return p, err
}

// newPipeline is NewPipeline with a test seam: startDrain=false builds the
// queues but leaves them undrained, so tests can observe backpressure.
// Such a pipeline must have startDrain called exactly once before Close.
func newPipeline(cfg PipelineConfig, startDrain bool) (*Pipeline, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, errors.New("ingest: PipelineConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:     cfg,
		queues:  make([]chan dataset.IngestRow, cfg.QueueShards),
		ageStop: make(chan struct{}),
		ageDone: make(chan struct{}),
	}
	for i := range p.queues {
		p.queues[i] = make(chan dataset.IngestRow, cfg.QueueDepth)
	}
	if err := p.primeSketches(); err != nil {
		return nil, err
	}
	if startDrain {
		p.startDrain()
	}
	return p, nil
}

// primeSketches rebuilds the running sealed-sketch merge from the segments
// already in the directory, so a restarted pipeline holds exactly the
// sketch state the previous process accumulated — the foundation of the
// cold-restart ≡ live-refresh property. Each segment contributes its
// persisted sketch bundles when they match the configured grids, and is
// re-binned from its rows otherwise (legacy segments, or a changed spec).
func (p *Pipeline) primeSketches() error {
	if len(p.cfg.Sketches) == 0 {
		return nil
	}
	p.sealedSk = make(map[string]*core.TierSketches, len(p.cfg.Sketches))
	for city, spec := range p.cfg.Sketches {
		ts, err := core.NewTierSketches(spec.Spec, spec.Tiers)
		if err != nil {
			return fmt.Errorf("ingest: sketch spec for %q: %w", city, err)
		}
		p.sealedSk[city] = ts
	}
	files, err := listSegments(p.cfg.Dir)
	if err != nil {
		return err
	}
	for _, name := range files {
		if err := p.foldSegmentSketches(filepath.Join(p.cfg.Dir, name)); err != nil {
			return fmt.Errorf("ingest: prime sketches from %s: %w", name, err)
		}
	}
	return nil
}

// foldSegmentSketches merges one sealed segment into the running
// sealed-sketch state, without materializing the segment: a bundle-only
// block scan seeks past every row section, so priming reads a few KiB per
// segment however many rows it holds. The segment's contribution is first
// assembled into fresh spec-shaped sketches (from its persisted bundles,
// or by streaming its raw rows when a bundle is absent or on a foreign
// grid), then folded in — so a partially bad segment never half-merges.
func (p *Pipeline) foldSegmentSketches(path string) error {
	bundles, err := scanSegmentBundles(path)
	if err != nil {
		return err
	}
	byCity := make(map[string][]dataset.SketchBundle)
	for _, b := range bundles {
		byCity[b.City] = append(byCity[b.City], b)
	}
	for city, spec := range p.cfg.Sketches {
		seg, err := segmentSketches(spec, byCity[city])
		if err != nil {
			// Absent bundles or a foreign grid: rebuild this city's
			// contribution by re-binning the segment's raw rows off a
			// second, column-pruned stream.
			if seg, err = rebinCitySamples(path, city, spec, 0); err != nil {
				return err
			}
		}
		if seg.Count() == 0 {
			continue
		}
		if err := p.sealedSk[city].Merge(seg); err != nil {
			return err
		}
	}
	return nil
}

// segmentSketches assembles one city's persisted bundles into spec-shaped
// tier sketches, failing when no bundle exists or a bundle's grid disagrees
// with the spec.
func segmentSketches(spec CitySketchSpec, bundles []dataset.SketchBundle) (*core.TierSketches, error) {
	if len(bundles) == 0 {
		return nil, errors.New("ingest: no sketch bundles for city")
	}
	seg, err := core.NewTierSketches(spec.Spec, spec.Tiers)
	if err != nil {
		return nil, err
	}
	for _, b := range bundles {
		switch {
		case b.Tier == dataset.UploadSketchTier:
			err = seg.Upload.Merge(b.Sketch)
		case b.Tier >= 0 && b.Tier < len(seg.Downloads):
			err = seg.Downloads[b.Tier].Merge(b.Sketch)
		default:
			err = fmt.Errorf("ingest: sketch tier %d out of range", b.Tier)
		}
		if err != nil {
			return nil, err
		}
	}
	return seg, nil
}

// startDrain launches one drainer per shard plus the age flusher.
func (p *Pipeline) startDrain() {
	for _, q := range p.queues {
		p.drainers.Add(1)
		go func(q chan dataset.IngestRow) {
			defer p.drainers.Done()
			for row := range q {
				p.add(row)
			}
		}(q)
	}
	go p.ageFlusher()
}

// Submit hands one classified row to the write-behind path. It blocks while
// the row's shard queue is full (backpressure) and returns ErrClosed once
// Close has begun.
func (p *Pipeline) Submit(row dataset.IngestRow) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	shard := p.rr.Add(1) % uint64(len(p.queues))
	p.queues[shard] <- row
	return nil
}

// add appends one row to the pending batch, sealing when the size
// threshold is reached. The seal's encode+write runs outside the lock, so
// other shards keep batching while a segment is written behind.
func (p *Pipeline) add(row dataset.IngestRow) {
	p.rows.Add(1)
	p.mu.Lock()
	if len(p.pending) == 0 {
		p.oldest = time.Now()
	}
	p.pending = append(p.pending, row)
	if len(p.pending) < p.cfg.BatchRows {
		p.mu.Unlock()
		return
	}
	batch, seq := p.takeLocked()
	p.mu.Unlock()
	p.seal(batch, seq)
}

// takeLocked detaches the pending batch and claims the next segment number.
// Callers hold p.mu.
func (p *Pipeline) takeLocked() ([]dataset.IngestRow, int) {
	batch := p.pending
	p.pending = make([]dataset.IngestRow, 0, p.cfg.BatchRows)
	seq := p.segSeq
	p.segSeq++
	return batch, seq
}

// ageFlusher seals partial batches whose oldest row exceeds MaxBatchAge.
func (p *Pipeline) ageFlusher() {
	defer close(p.ageDone)
	if p.cfg.MaxBatchAge < 0 {
		<-p.ageStop
		return
	}
	tick := p.cfg.MaxBatchAge / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-p.ageStop:
			return
		case <-t.C:
			p.mu.Lock()
			if len(p.pending) == 0 || time.Since(p.oldest) < p.cfg.MaxBatchAge {
				p.mu.Unlock()
				continue
			}
			batch, seq := p.takeLocked()
			p.mu.Unlock()
			p.seal(batch, seq)
		}
	}
}

// seal sorts a batch into the stable key order, encodes it as a one-section
// .sxc image (plus the batch's sketch bundles when sketches are configured),
// and atomically writes segment file seq. Once the segment is durable, its
// sketches fold into the running sealed-sketch merge — so SealedSketches
// only ever describes rows a restart would also recover. Errors latch into
// firstErr and surface from Close.
func (p *Pipeline) seal(batch []dataset.IngestRow, seq int) {
	if len(batch) == 0 {
		return
	}
	dataset.SortIngestRows(batch)
	sketches, bundles, err := p.batchSketches(batch)
	var buf []byte
	if err == nil {
		buf, err = dataset.EncodeIngestSegmentSketches(dataset.ColumnizeIngest(batch), bundles)
	}
	if err == nil {
		err = dataset.WriteFileAtomic(p.segmentPath(seq), buf)
	}
	if err != nil {
		p.mu.Lock()
		if p.firstErr == nil {
			p.firstErr = fmt.Errorf("ingest: seal segment %d: %w", seq, err)
		}
		p.mu.Unlock()
		return
	}
	if len(sketches) > 0 {
		p.sketchMu.Lock()
		for city, seg := range sketches {
			if mergeErr := p.sealedSk[city].Merge(seg); mergeErr != nil && err == nil {
				err = mergeErr
			}
		}
		p.sketchMu.Unlock()
		if err != nil {
			p.mu.Lock()
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("ingest: merge segment %d sketches: %w", seq, err)
			}
			p.mu.Unlock()
		}
	}
	p.seals.Add(1)
	p.sealed.Add(uint64(len(batch)))
}

// batchSketches bins one sorted batch into per-city tier sketches (cities
// with a configured spec and at least one row in the batch) and renders the
// matching persisted bundles, ordered by city then tier so segment bytes
// stay a pure function of the row set.
func (p *Pipeline) batchSketches(batch []dataset.IngestRow) (map[string]*core.TierSketches, []dataset.SketchBundle, error) {
	if len(p.cfg.Sketches) == 0 {
		return nil, nil, nil
	}
	sketches := make(map[string]*core.TierSketches)
	for _, row := range batch {
		ts, ok := sketches[row.City]
		if !ok {
			spec, configured := p.cfg.Sketches[row.City]
			if !configured {
				continue
			}
			var err error
			if ts, err = core.NewTierSketches(spec.Spec, spec.Tiers); err != nil {
				return nil, nil, err
			}
			sketches[row.City] = ts
		}
		ts.AddSample(row.UploadTier, row.DownloadMbps, row.UploadMbps)
	}
	cities := make([]string, 0, len(sketches))
	for city := range sketches {
		cities = append(cities, city)
	}
	sort.Strings(cities)
	var bundles []dataset.SketchBundle
	for _, city := range cities {
		ts := sketches[city]
		bundles = append(bundles, dataset.SketchBundle{City: city, Tier: dataset.UploadSketchTier, Sketch: ts.Upload})
		for ti, d := range ts.Downloads {
			bundles = append(bundles, dataset.SketchBundle{City: city, Tier: ti, Sketch: d})
		}
	}
	return sketches, bundles, nil
}

// SealedSketchesFor returns an independent copy of the running merged
// sketches of every sealed segment for one city, with ok=false when the
// city has no configured sketch spec. The copy is safe to merge and fit
// from while sealing continues.
func (p *Pipeline) SealedSketchesFor(city string) (*core.TierSketches, bool) {
	p.sketchMu.Lock()
	defer p.sketchMu.Unlock()
	ts, ok := p.sealedSk[city]
	if !ok {
		return nil, false
	}
	return ts.Clone(), true
}

// SketchCounts reports the sealed-row count per sketch-configured city —
// the cheap staleness probe the refresh loop polls before paying for a
// clone and refit.
func (p *Pipeline) SketchCounts() map[string]int {
	p.sketchMu.Lock()
	defer p.sketchMu.Unlock()
	if p.sealedSk == nil {
		return nil
	}
	out := make(map[string]int, len(p.sealedSk))
	for city, ts := range p.sealedSk {
		out[city] = ts.Count()
	}
	return out
}

func (p *Pipeline) segmentPath(seq int) string {
	return filepath.Join(p.cfg.Dir, fmt.Sprintf("seg-%08d%s", seq, segmentSuffix))
}

// Close drains and seals everything: it stops intake (subsequent Submits
// return ErrClosed), waits for the queues to empty, seals the final partial
// batch, and returns the first seal error, if any.
func (p *Pipeline) Close() error {
	p.closeMu.Lock()
	alreadyClosed := p.closed
	p.closed = true
	if !alreadyClosed {
		for _, q := range p.queues {
			close(q)
		}
	}
	p.closeMu.Unlock()
	if alreadyClosed {
		<-p.ageDone
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.firstErr
	}
	p.drainers.Wait()
	select {
	case <-p.ageDone:
	default:
		close(p.ageStop)
		<-p.ageDone
	}
	p.mu.Lock()
	batch, seq := p.takeLocked()
	p.mu.Unlock()
	p.seal(batch, seq)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr
}

// Stats reports the pipeline's row accounting.
func (p *Pipeline) Stats() (queued, sealedRows, segments uint64) {
	return p.rows.Load(), p.sealed.Load(), p.seals.Load()
}

const (
	segmentSuffix = ".sxc"
	// CompactedName is the canonical snapshot CompactWith writes.
	CompactedName = "ingest.sxc"
)

// listSegments returns the names of the regular segment files in dir,
// sorted — the file order every segment reader folds in.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); e.Type().IsRegular() && strings.HasSuffix(name, segmentSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// CompactOptions tunes CompactWith. The zero value means all-CPU scans,
// default batches and unclustered v2 output.
type CompactOptions struct {
	// Par is the number of segments scanned concurrently (0 = all CPUs).
	Par int
	// BatchRows is the scan batch size (0 = dataset.DefaultScanBatchRows).
	// Neither knob affects the output bytes.
	BatchRows int
	// ClusterZoom > 0 emits the compacted snapshot as a format-v3
	// quadkey-clustered zoned file (DESIGN.md §15): rows sorted by packed
	// quadkey at this zoom (ties broken by the stable row key — the
	// clustered canonical order), split into zone-mapped row groups that
	// bbox tile queries skip by seek. 0 keeps the unclustered v2 layout.
	ClusterZoom int
	// ZoneBlockRows is the rows-per-group split of a clustered snapshot
	// (0 = the dataset default, 4096).
	ZoneBlockRows int
	// LocSeed is the location-derivation seed zone quadkeys are computed
	// under (0 = opendata.DefaultLocSeed). It must match the seed the tile
	// query layer serves with, or pushdown degrades to full reads.
	LocSeed int64
}

// CompactWith merges every sealed segment in dir (and any previous
// compacted snapshot) into the single canonical snapshot CompactedName,
// then removes the merged segments. The result's bytes are a function of
// the ingested row set and the options alone: any worker count, shard
// count, or arrival interleaving that drained the same rows compacts to
// the same file — both sort orders are total and deterministic.
//
// The merge scan streams every segment concurrently (DESIGN.md §14):
// per-file block scanners decode in parallel and the per-segment payloads
// reduce in sorted file order, so decode overlaps the fold while the
// output bytes stay independent of worker count.
func CompactWith(dir string, opts CompactOptions) (string, error) {
	files, err := listSegments(dir)
	if err != nil {
		return "", err
	}
	paths := make([]string, len(files))
	for i, name := range files {
		paths[i] = filepath.Join(dir, name)
	}
	segs, err := scanSegmentsForCompact(paths, opts.Par, opts.BatchRows)
	if err != nil {
		return "", fmt.Errorf("ingest: compact: %w", err)
	}
	var rows []dataset.IngestRow
	type sketchKey struct {
		city string
		tier int
	}
	merged := make(map[sketchKey]*dataset.SketchBundle)
	for si, seg := range segs {
		rows = append(rows, seg.rows...)
		for _, b := range seg.bundles {
			k := sketchKey{b.City, b.Tier}
			if m, ok := merged[k]; ok {
				if err := m.Sketch.Merge(b.Sketch); err != nil {
					return "", fmt.Errorf("ingest: compact %s: sketch %s/%d: %w", files[si], b.City, b.Tier, err)
				}
			} else {
				merged[k] = &dataset.SketchBundle{City: b.City, Tier: b.Tier, Sketch: b.Sketch.Clone()}
			}
		}
	}
	// Bundle order (city, then tier) is part of the byte-determinism
	// contract: any segment partition of the same rows compacts to the
	// same file.
	keys := make([]sketchKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].city != keys[b].city {
			return keys[a].city < keys[b].city
		}
		return keys[a].tier < keys[b].tier
	})
	var bundles []dataset.SketchBundle
	for _, k := range keys {
		bundles = append(bundles, *merged[k])
	}
	var buf []byte
	if opts.ClusterZoom > 0 {
		zo := opendata.NewZoneOptions(opts.ClusterZoom, opts.ZoneBlockRows, opts.LocSeed)
		dataset.SortIngestRowsClustered(rows, zo.Quadkey)
		buf, err = dataset.EncodeIngestSegmentZoned(dataset.ColumnizeIngest(rows), bundles, zo)
	} else {
		dataset.SortIngestRows(rows)
		buf, err = dataset.EncodeIngestSegmentSketches(dataset.ColumnizeIngest(rows), bundles)
	}
	if err != nil {
		return "", err
	}
	out := filepath.Join(dir, CompactedName)
	if err := dataset.WriteFileAtomic(out, buf); err != nil {
		return "", err
	}
	for _, name := range files {
		if name == CompactedName {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return "", err
		}
	}
	return out, nil
}
