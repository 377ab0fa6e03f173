// Package ingest closes the paper's production loop: a high-concurrency
// HTTP service that accepts completed speed-test results, contextualizes
// each <download, upload> tuple against the fitted per-city BST model at
// ingest time (core.Classifier — no refit, no per-request allocation), and
// persists the accepted rows into the PR 5 .sxc snapshot store through an
// asynchronous write-behind batcher.
//
// Architecture (DESIGN.md §11):
//
//	HTTP handlers ──► pending batch ──► sealer goroutine ──► sealed .sxc segments
//	 (classify)      (backpressure)   (size/age/Close)       (clustered, zoned)
//
// Submit appends to one pending batch under a mutex. When the batch is full
// and the sealer has not yet taken it, producers block — backpressure,
// never drops — which surfaces to clients as slower acks, exactly like a
// loaded collector should behave. One sealer goroutine seals the batches
// in sequence order with the store's atomic tempfile+rename discipline;
// each segment is internally sorted by quadkey, then by a stable total
// key, into zone-mapped row groups a bbox query can skip, and CompactWith
// merges every segment into one canonical snapshot whose bytes depend only
// on the ingested row set — not on batch size, producer count, or arrival
// interleaving.
package ingest

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
	// this long, bounding how long an acked row stays only in memory under
	// a trickle. The sealer checks every MaxBatchAge/4. Default 2s;
	// negative disables age-based sealing.
	MaxBatchAge time.Duration
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
}

// ErrClosed is returned by Submit after Close has begun, and after a seal
// failed (wrapped together with the seal error).
var ErrClosed = errors.New("ingest: pipeline closed")

// Pipeline is the accepted-row path: one pending batch that a single
// sealer goroutine turns into sorted .sxc segments.
type Pipeline struct {
	cfg PipelineConfig

	mu      sync.Mutex // guards pending, oldest, closed, sealErr
	space   sync.Cond  // broadcast when the sealer takes a batch or fails, and on Close
	pending []dataset.IngestRow
	oldest  time.Time
	closed  bool
	// sealErr latches the first seal failure: from then on Submit refuses
	// every row, since a row it acked could not be made durable either.
	sealErr error

	// wake (capacity 1) tells the sealer that the pending batch is full or
	// that Close has begun; done closes when the sealer has exited.
	wake chan struct{}
	done chan struct{}

	// Owned by the sealer goroutine.
	segSeq int

	// sketchMu guards sealedSk, the running merge of every sealed
	// segment's sketches (only cities listed in cfg.Sketches).
	sketchMu sync.Mutex
	sealedSk map[string]*core.TierSketches

	rows   atomic.Uint64 // rows accepted by Submit
	seals  atomic.Uint64 // segments sealed
	sealed atomic.Uint64 // rows sealed to disk
}

// NewPipeline primes the sealed-sketch state from the directory's existing
// segments and starts the sealer.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	p, err := newPipeline(cfg)
	if err != nil {
		return nil, err
	}
	go p.sealer()
	return p, nil
}

// newPipeline builds a pipeline without starting its sealer — the seam
// tests use to park the sealer and observe backpressure. Such a pipeline
// must have its sealer started (go p.sealer()) exactly once before Close.
func newPipeline(cfg PipelineConfig) (*Pipeline, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, errors.New("ingest: PipelineConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	p.space.L = &p.mu
	files, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	// Number new segments after every existing one, so a restart never
	// renames over a segment an earlier run sealed.
	for _, name := range files {
		if seq, ok := segmentSeq(name); ok && seq >= p.segSeq {
			p.segSeq = seq + 1
		}
	}
	if err := p.primeSketches(files); err != nil {
		return nil, err
	}
	return p, nil
}

// primeSketches rebuilds the running sealed-sketch merge from the segments
// already in the directory, so a restarted pipeline holds exactly the
// sketch state the previous process accumulated — the foundation of the
// cold-restart ≡ live-refresh property. Each segment contributes its
// persisted sketch bundles when they match the configured grids, and is
// re-binned from its rows otherwise (legacy segments, or a changed spec).
func (p *Pipeline) primeSketches(files []string) error {
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
// A segment holds bundles only for the cities that had rows in its batch,
// so every city without usable bundles is re-binned in one shared scan.
func (p *Pipeline) foldSegmentSketches(path string) error {
	bundles, err := scanSegmentBundles(path)
	if err != nil {
		return err
	}
	byCity := make(map[string][]dataset.SketchBundle)
	for _, b := range bundles {
		byCity[b.City] = append(byCity[b.City], b)
	}
	segs := make(map[string]*core.TierSketches, len(p.cfg.Sketches))
	rebin := make(map[string]CitySketchSpec)
	for city, spec := range p.cfg.Sketches {
		if seg, err := segmentSketches(spec, byCity[city]); err == nil {
			segs[city] = seg
		} else {
			rebin[city] = spec
		}
	}
	if len(rebin) > 0 {
		// Absent bundles or a foreign grid: rebuild those cities'
		// contributions by re-binning the segment's raw rows off a
		// second, column-pruned stream.
		rebinned, err := rebinCitySamples(path, rebin, 0)
		if err != nil {
			return err
		}
		maps.Copy(segs, rebinned)
	}
	for city, seg := range segs {
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

// Submit hands one classified row to the write-behind path. It blocks while
// a full batch waits for the sealer (backpressure). It returns ErrClosed
// once Close has begun, and an error wrapping both ErrClosed and the seal
// error once a seal has failed.
func (p *Pipeline) Submit(row dataset.IngestRow) error {
	p.mu.Lock()
	for !p.closed && p.sealErr == nil && len(p.pending) >= p.cfg.BatchRows {
		p.space.Wait()
	}
	if p.closed || p.sealErr != nil {
		err := ErrClosed
		if p.sealErr != nil {
			err = fmt.Errorf("%w: %w", ErrClosed, p.sealErr)
		}
		p.mu.Unlock()
		return err
	}
	if len(p.pending) == 0 {
		p.oldest = time.Now()
	}
	p.pending = append(p.pending, row)
	p.rows.Add(1)
	full := len(p.pending) == p.cfg.BatchRows
	p.mu.Unlock()
	if full {
		p.signal()
	}
	return nil
}

// signal wakes the sealer without blocking; one queued wake is enough,
// because the sealer re-reads the whole state each time it wakes.
func (p *Pipeline) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// sealer is the one goroutine that seals. It takes the pending batch when
// it is full, when its oldest row has waited MaxBatchAge (checked every
// MaxBatchAge/4), and on Close, and it seals each batch before taking the
// next — so segments reach disk in sequence order.
func (p *Pipeline) sealer() {
	defer close(p.done)
	var tick <-chan time.Time
	if p.cfg.MaxBatchAge > 0 {
		t := time.NewTicker(max(p.cfg.MaxBatchAge/4, time.Millisecond))
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-p.wake:
		case <-tick:
		}
		p.mu.Lock()
		closed := p.closed
		var batch []dataset.IngestRow
		if closed || len(p.pending) >= p.cfg.BatchRows ||
			(p.cfg.MaxBatchAge > 0 && len(p.pending) > 0 && time.Since(p.oldest) >= p.cfg.MaxBatchAge) {
			batch = p.pending
			p.pending = make([]dataset.IngestRow, 0, len(batch))
			p.space.Broadcast()
		}
		p.mu.Unlock()
		if len(batch) > 0 {
			if err := p.seal(batch, p.segSeq); err != nil {
				p.mu.Lock()
				if p.sealErr == nil {
					p.sealErr = err
					p.space.Broadcast()
				}
				p.mu.Unlock()
			}
			p.segSeq++
		}
		if closed {
			return
		}
	}
}

// seal sorts a batch into the clustered canonical order, encodes it a
// zone group at a time as a one-section zoned .sxc image (plus the
// batch's sketch bundles when sketches are configured) under the
// canonical zone options, and atomically writes segment file seq. A
// segment is thus laid out like a clustered compaction, so a bbox query
// skips its row groups the same way. Once the
// segment is renamed into place, its sketches fold into the running
// sealed-sketch merge — so SealedSketches only ever describes rows a
// restart would also recover. The sealer latches the first error, which
// stops admission, and Close returns it.
func (p *Pipeline) seal(batch []dataset.IngestRow, seq int) error {
	zo := opendata.NewZoneOptions(opendata.TileZoom, 0)
	zo.Quadkey = (&keyMemo{derive: zo.Quadkey, slots: len(batch)}).key
	dataset.SortIngestRowsClustered(batch, zo.Quadkey)
	sketches, bundles, err := p.batchSketches(batch)
	var buf []byte
	if err == nil {
		buf, err = dataset.EncodeIngestRowsZoned(batch, bundles, zo)
	}
	if err == nil {
		err = dataset.WriteFileAtomic(p.segmentPath(seq), buf)
	}
	if err != nil {
		return fmt.Errorf("ingest: seal segment %d: %w", seq, err)
	}
	if len(sketches) > 0 {
		p.sketchMu.Lock()
		for city, seg := range sketches {
			if mergeErr := p.sealedSk[city].Merge(seg); mergeErr != nil && err == nil {
				err = fmt.Errorf("ingest: merge segment %d sketches: %w", seq, mergeErr)
			}
		}
		p.sketchMu.Unlock()
	}
	p.seals.Add(1)
	p.sealed.Add(uint64(len(batch)))
	return err
}

// keyMemo memoises the zone key derivation for one seal or clustered
// compaction. The clustered sort and the zoned encoder each derive every
// row's key, and a derivation (the UserLocation hash and the Mercator
// trig) costs far more than a slice load, so each distinct (city, user) is
// derived once per file. A user id indexes its city's dense table; the
// tables together hold at most one slot per row, so no choice of ids makes
// them cost more than 8 bytes per row. An id the tables cannot hold —
// negative, or past the remaining slots — and a city past the first
// memoCities are derived on every call.
type keyMemo struct {
	derive func(city string, userID int) uint64
	slots  int // table slots still free
	cities []*cityKeys
	last   *cityKeys
}

// cityKeys is one city's table: the key plus one per user id, 0 for an id
// not derived yet (packed keys stay below 1<<60).
type cityKeys struct {
	name string
	keys []uint64
}

// key returns derive(city, user), deriving it at most once per table slot.
func (m *keyMemo) key(city string, user int) uint64 {
	if user < 0 {
		return m.derive(city, user)
	}
	ck := m.city(city)
	if ck == nil || user >= len(ck.keys) && !m.grow(ck, user) {
		return m.derive(city, user)
	}
	if k := ck.keys[user]; k != 0 {
		return k - 1
	}
	k := m.derive(city, user)
	ck.keys[user] = k + 1
	return k
}

// memoCities bounds a memo's city tables, and with them the linear
// search that finds a row's table.
const memoCities = 64

// city returns name's table, or nil once memoCities tables exist and
// none is name's. A file holds few cities, and the encoder asks for one
// city's rows in a run, so the last table answers first.
func (m *keyMemo) city(name string) *cityKeys {
	if m.last != nil && m.last.name == name {
		return m.last
	}
	for _, ck := range m.cities {
		if ck.name == name {
			m.last = ck
			return ck
		}
	}
	if len(m.cities) == memoCities {
		return nil
	}
	m.last = &cityKeys{name: name}
	m.cities = append(m.cities, m.last)
	return m.last
}

// grow extends ck's table to cover user, doubling it when the free slots
// allow, and reports false when they cannot cover user at all.
func (m *keyMemo) grow(ck *cityKeys, user int) bool {
	if user-len(ck.keys) >= m.slots {
		return false
	}
	n := len(ck.keys) + min(m.slots, max(user-len(ck.keys)+1, len(ck.keys)))
	m.slots -= n - len(ck.keys)
	grown := make([]uint64, n)
	copy(grown, ck.keys)
	ck.keys = grown
	return true
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
	return filepath.Join(p.cfg.Dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
}

// segmentSeq parses the sequence number of a sealed segment's name, with
// ok=false for any other file (such as CompactedName).
func segmentSeq(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, segmentPrefix)
	if !ok {
		return 0, false
	}
	seq, err := strconv.Atoi(strings.TrimSuffix(digits, segmentSuffix))
	return seq, err == nil && seq >= 0
}

// Close stops intake (subsequent Submits, and any blocked on a full batch,
// return ErrClosed), waits for the sealer to seal every accepted row, and
// returns the first seal error, if any. Close is idempotent.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	p.closed = true
	p.space.Broadcast()
	p.mu.Unlock()
	p.signal()
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sealErr
}

// Stats reports the pipeline's row accounting.
func (p *Pipeline) Stats() (queued, sealedRows, segments uint64) {
	return p.rows.Load(), p.sealed.Load(), p.seals.Load()
}

const (
	segmentPrefix = "seg-"
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

// CompactOptions tunes CompactWith. The zero value means default scan
// batches and unclustered v2 output.
type CompactOptions struct {
	// BatchRows is the scan batch of each streamed run (0 =
	// dataset.DefaultScanBatchRows). It does not affect the output bytes.
	BatchRows int
	// ClusterZoom > 0 emits the compacted snapshot as a format-v3
	// quadkey-clustered zoned file (DESIGN.md §15): rows sorted by packed
	// quadkey at this zoom (ties broken by the stable row key — the
	// clustered canonical order), split into zone-mapped row groups that
	// bbox tile queries skip by seek. Every sealed segment is a sorted run
	// in this order at opendata.TileZoom, so at that zoom the merge streams
	// the segments instead of sorting them. 0 keeps the unclustered v2
	// layout, for which every run is sorted alone before the merge.
	ClusterZoom int
	// ZoneBlockRows is the rows-per-group split of a clustered snapshot
	// (0 = the dataset default, 4096).
	ZoneBlockRows int
}

// CompactWith merges every sealed segment in dir (and any previous
// compacted snapshot) into the single canonical snapshot CompactedName,
// then removes the merged segments. The result's bytes are a function of
// the ingested row set and the options alone: any worker count, shard
// count, or arrival interleaving that drained the same rows compacts to
// the same file — both sort orders are total and deterministic.
//
// Every input file is a sorted run, and the compaction is a k-way merge
// of the runs (dataset.MergeIngestRuns, DESIGN.md §14) on one goroutine.
// A run whose zone directory records the output's zoom and location seed
// — every sealed segment, at ClusterZoom opendata.TileZoom — streams a
// batch at a time; any other run is read and sorted alone first. A
// clustered compaction writes the merged rows into the output image one
// zone group at a time, so it holds the image (allocated once at the
// inputs' total size), one group and one batch per streamed run, never
// the output columns whole; an unclustered one still builds them, for
// the v2 section's whole-column dictionaries. A streamed run found out of
// order fails the compaction with an error naming its file, before
// anything is written or removed.
func CompactWith(dir string, opts CompactOptions) (string, error) {
	files, err := listSegments(dir)
	if err != nil {
		return "", err
	}
	runs := make([]dataset.IngestRun, 0, len(files))
	var srcs []*dataset.FileSource
	defer func() {
		for _, src := range srcs {
			src.Close()
		}
	}()
	rows := 0
	for _, name := range files {
		src, err := dataset.OpenFileSource(filepath.Join(dir, name))
		if err != nil {
			return "", fmt.Errorf("ingest: compact: %w", err)
		}
		srcs = append(srcs, src)
		d, err := dataset.ParseDirectory(src)
		if err != nil {
			return "", fmt.Errorf("ingest: compact: %s: %w", name, err)
		}
		runs = append(runs, dataset.IngestRun{Name: name, Src: src, Dir: d})
		rows += d.IngestRows()
	}
	var zo *dataset.ZoneOptions
	if opts.ClusterZoom > 0 {
		zo = opendata.NewZoneOptions(opts.ClusterZoom, opts.ZoneBlockRows)
		zo.Quadkey = (&keyMemo{derive: zo.Quadkey, slots: rows}).key
	}
	buf, err := dataset.MergeIngestRuns(runs, zo, opts.BatchRows, func(sketches [][]dataset.SketchBundle) ([]dataset.SketchBundle, error) {
		return mergeBundles(files, sketches)
	})
	if err != nil {
		return "", fmt.Errorf("ingest: compact: %w", err)
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

// mergeBundles merges the sketch bundles of every file, sketches[i]
// being those of files[i], into one bundle per (city, tier), in city then
// tier order. That order is part of the byte-determinism contract: any
// segment partition of the same rows compacts to the same file.
func mergeBundles(files []string, sketches [][]dataset.SketchBundle) ([]dataset.SketchBundle, error) {
	type sketchKey struct {
		city string
		tier int
	}
	merged := make(map[sketchKey]*dataset.SketchBundle)
	for si, bs := range sketches {
		for _, b := range bs {
			k := sketchKey{b.City, b.Tier}
			if m, ok := merged[k]; ok {
				if err := m.Sketch.Merge(b.Sketch); err != nil {
					return nil, fmt.Errorf("%s: sketch %s/%d: %w", files[si], b.City, b.Tier, err)
				}
			} else {
				merged[k] = &dataset.SketchBundle{City: b.City, Tier: b.Tier, Sketch: b.Sketch.Clone()}
			}
		}
	}
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
	bundles := make([]dataset.SketchBundle, 0, len(keys))
	for _, k := range keys {
		bundles = append(bundles, *merged[k])
	}
	return bundles, nil
}
