package dataset

// The compaction merge (DESIGN.md §14): k sorted runs of ingest rows, one
// per input file, merged into one ingest segment image. A sealed segment
// is already a run in the clustered canonical order, so compaction reads
// each one through its BlockScanner a batch at a time instead of copying
// every row into one slice and sorting it again, and the merged rows go to
// the zoned group writer a row group at a time.

import (
	"fmt"
)

// IngestRun is one input file of MergeIngestRuns: a parsed directory and
// the source it was parsed from. Name labels the run in errors.
type IngestRun struct {
	Name string
	Src  ScanSource
	Dir  *Directory
}

// IngestRows is the row count of every ingest section in d.
func (d *Directory) IngestRows() int {
	rows, _, _ := d.ingestSections()
	return rows
}

// ingestSections reports d's ingest sections: their total rows, how many
// logical sections there are, and the zone directory of the first one,
// nil when it is a v2 section.
func (d *Directory) ingestSections() (rows, sections int, zone *zoneDir) {
	for _, ss := range d.sections {
		if ss.kind != snapKindIngest {
			continue
		}
		rows += ss.rows
		if ss.zone == nil || ss.zone.first {
			if sections == 0 && ss.zone != nil {
				zone = ss.zone.dir
			}
			sections++
		}
	}
	return rows, sections, zone
}

// mergeSelection is everything a merge re-encodes: every ingest column
// and the sketch bundles.
var mergeSelection = SnapshotSelection{Ingest: AllColumns, Sketches: true}

// MergeIngestRuns merges the ingest sections of runs and returns them as
// one ingest segment image. With opts set the image is zoned under opts
// and its rows are in the clustered canonical order under opts.Quadkey
// (SortIngestRowsClustered); with opts nil it is a v2 image in the v2
// order (SortIngestRows). Either way its bytes are those
// EncodeIngestSegmentZoned (or EncodeIngestSegmentSketches) writes of a
// sort of every run's rows concatenated. Once the runs are drained,
// sketches gets each run's sketch bundles, in run order, and returns the
// bundles the image carries.
//
// A run whose one ingest section is zoned at opts' zoom and location seed
// is in that order already. It streams through a BlockScanner in batches
// of batchRows (0 = DefaultScanBatchRows), and the merge checks its order
// as it reads: a row that sorts before the one ahead of it fails the
// merge with an error naming the run. Any other run (a v2 section, a
// foreign zoom or seed, every run of a v2 merge) is read whole and sorted
// alone first.
//
// A zoned merge copies each least head into one reused row group and,
// with the cluster key the merge already holds for it, hands every full
// group to the zoned group writer, whose image is allocated once at the
// runs' total size. So it holds the image, one group, one batch per
// streamed run and the sorted runs' columns, never the output columns
// whole. A v2 merge runs the same loop into one group the size of the
// whole output, since the v2 section's dictionaries span every row. The
// merge builds no row structs beyond the one row a tie between two heads
// compares.
func MergeIngestRuns(runs []IngestRun, opts *ZoneOptions, batchRows int, sketches func(runs [][]SketchBundle) ([]SketchBundle, error)) ([]byte, error) {
	var key func(city string, userID int) uint64
	if opts != nil {
		if err := opts.validate(); err != nil {
			return nil, err
		}
		key = opts.Quadkey
	}
	m := &ingestMerge{key: key}
	all := make([]*mergeRun, len(runs))
	total, size := 0, 0
	for i, in := range runs {
		r, err := m.open(in, opts, batchRows)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		all[i] = r
		total += in.Dir.IngestRows()
		size += int(in.Src.Size())
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	runSketches := func() ([]SketchBundle, error) {
		bundles := make([][]SketchBundle, len(all))
		for i, r := range all {
			bundles[i] = r.sketches
		}
		return sketches(bundles)
	}
	if opts == nil {
		var out *IngestColumns
		if err := m.merge(total, total, func(g *IngestColumns, _ []uint64) error { out = g; return nil }); err != nil {
			return nil, err
		}
		bundles, err := runSketches()
		if err != nil {
			return nil, err
		}
		return EncodeIngestSegmentSketches(out, bundles)
	}
	w, err := newIngestSegmentWriter(total, opts, size)
	if err != nil {
		return nil, err
	}
	if err := m.merge(total, w.w.blockRows, w.w.group); err != nil {
		return nil, err
	}
	bundles, err := runSketches()
	if err != nil {
		return nil, err
	}
	return w.finish(bundles)
}

// ingestMerge is one MergeIngestRuns call: the order's key and a min-heap
// of the runs that still hold rows, ordered by their heads.
type ingestMerge struct {
	key  func(city string, userID int) uint64
	heap []*mergeRun
}

// mergeRun is one run's read position. Its head, the next row it
// yields, is row i of cols, and key is the head's cluster key (0 in a v2
// merge).
type mergeRun struct {
	name     string
	sc       *BlockScanner  // batch source of a streamed run, nil once drained
	tail     *IngestColumns // a streamed run's row before the head, for the order check
	cols     *IngestColumns
	start    int // section row of cols' first row
	i, n     int // head's row in cols, rows in cols
	key      uint64
	sketches []SketchBundle
}

// open prepares one run and, when it holds rows, adds it to the heap,
// which MergeIngestRuns orders once every run is open.
func (m *ingestMerge) open(in IngestRun, opts *ZoneOptions, batchRows int) (*mergeRun, error) {
	_, sections, zone := in.Dir.ingestSections()
	if sections == 0 {
		return nil, fmt.Errorf("snapshot carries no ingest section")
	}
	r := &mergeRun{name: in.Name}
	if opts != nil && sections == 1 && zone != nil && zone.zoom == opts.zoom() && zone.locSeed == opts.LocSeed {
		sc, err := in.Dir.Scanner(in.Src, mergeSelection, batchRows)
		if err != nil {
			return nil, err
		}
		r.sc, r.tail = sc, newIngestColumns(1)
		if err := r.fill(); err != nil {
			return nil, err
		}
	} else if err := r.sortAlone(in, m.key); err != nil {
		return nil, err
	}
	if r.n > 0 {
		r.load(m.key)
		m.heap = append(m.heap, r)
	}
	return r, nil
}

// sortAlone reads the run whole, through a scan whose whole-section
// batches are fresh slices the run may keep, and sorts its rows into the
// merge order.
func (r *mergeRun) sortAlone(in IngestRun, key func(city string, userID int) uint64) error {
	sc, err := in.Dir.scanner(in.Src, mergeSelection, 0, true, true)
	if err != nil {
		return err
	}
	var c *IngestColumns
	for sc.Scan() {
		b := sc.Batch()
		switch b.Kind {
		case SectionSketch:
			r.sketches = append(r.sketches, b.Sketches...)
		case SectionIngest:
			c = ingestLayout.appendBatch(c, b.Ingest)
		}
	}
	if err := sc.Err(); err != nil || c == nil {
		return err
	}
	ents := clusterOrder(c.Len(),
		func(i int) (string, int, int) { return c.City[i], c.UserID[i], c.TestID[i] },
		key, func(a, b int32) bool {
			ra, rb := c.row(int(a)), c.row(int(b))
			return ingestRowLess(&ra, &rb)
		})
	perm := make([]int, len(ents))
	for i, e := range ents {
		perm[i] = int(e.row)
	}
	r.cols, r.n = ingestLayout.permute(c, perm), len(perm)
	return nil
}

// fill moves a streamed run to its next non-empty ingest batch, keeping
// the sketch bundles it passes. At the end of the file it leaves n at 0
// and drops the scanner.
func (r *mergeRun) fill() error {
	r.i, r.n = 0, 0
	for r.sc.Scan() {
		b := r.sc.Batch()
		switch b.Kind {
		case SectionSketch:
			r.sketches = append(r.sketches, b.Sketches...)
		case SectionIngest:
			if b.Rows > 0 {
				r.cols, r.start, r.n = b.Ingest, b.Start, b.Rows
				return nil
			}
		}
	}
	err := r.sc.Err()
	r.sc = nil
	return err
}

// load derives the cluster key of the run's head.
func (r *mergeRun) load(key func(city string, userID int) uint64) {
	if key != nil {
		r.key = key(r.cols.City[r.i], r.cols.UserID[r.i])
	}
}

// next advances the run past its head. It reports false once the run is
// out of rows, and fails when a streamed run's new head sorts before the
// old one.
func (r *mergeRun) next(key func(city string, userID int) uint64) (bool, error) {
	prev, pi, prevKey := r.cols, r.i, r.key
	if r.i++; r.i == r.n {
		if r.sc == nil {
			return false, nil
		}
		// The next batch reuses the scanner's buffers: the old head
		// moves to tail for the order check.
		r.tail.copyRow(0, prev, pi)
		prev, pi = r.tail, 0
		if err := r.fill(); err != nil {
			return false, fmt.Errorf("%s: %w", r.name, err)
		}
		if r.n == 0 {
			return false, nil
		}
	}
	r.load(key)
	if r.tail != nil && rowLess(r.key, r.cols, r.i, prevKey, prev, pi) {
		return false, fmt.Errorf("%s: ingest row %d is out of clustered order", r.name, r.start+r.i)
	}
	return true, nil
}

// rowLess is the clustered canonical order over row i of a, whose key is
// ka, and row j of b, whose key is kb: the key, then the city in byte
// order, then the test id, then ingestRowLess (the order clusterOrder
// sorts by).
func rowLess(ka uint64, a *IngestColumns, i int, kb uint64, b *IngestColumns, j int) bool {
	switch {
	case ka != kb:
		return ka < kb
	case a.City[i] != b.City[j]:
		return a.City[i] < b.City[j]
	case a.TestID[i] != b.TestID[j]:
		return a.TestID[i] < b.TestID[j]
	}
	ra, rb := a.row(i), b.row(j)
	return ingestRowLess(&ra, &rb)
}

// merge moves the least head into a group of groupRows rows until every
// run is drained, handing each full group, the last one however short, to
// sink with its rows' cluster keys (nil in a v2 merge). The group and its
// keys are reused once sink returns. total is the rows the runs'
// directories declare; a merge that finds another count fails.
func (m *ingestMerge) merge(total, groupRows int, sink func(g *IngestColumns, keys []uint64) error) error {
	g := newIngestColumns(min(groupRows, total))
	var keys []uint64
	if m.key != nil {
		keys = make([]uint64, g.Len())
	}
	o, merged := 0, 0
	flush := func() error {
		var k []uint64
		if keys != nil {
			k = keys[:o]
		}
		err := sink(ingestLayout.slice(g, 0, o), k)
		o = 0
		return err
	}
	for len(m.heap) > 0 {
		if merged == total {
			return fmt.Errorf("merged runs hold more ingest rows than the %d their directories declare", total)
		}
		r := m.heap[0]
		g.copyRow(o, r.cols, r.i)
		if keys != nil {
			keys[o] = r.key
		}
		o++
		merged++
		more, err := r.next(m.key)
		if err != nil {
			return err
		}
		if !more {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
		if o == g.Len() {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if merged != total {
		return fmt.Errorf("merged runs hold %d ingest rows, their directories declare %d", merged, total)
	}
	if o > 0 || merged == 0 {
		return flush()
	}
	return nil
}

func (m *ingestMerge) less(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	return rowLess(a.key, a.cols, a.i, b.key, b.cols, b.i)
}

// down restores the heap order below position i.
func (m *ingestMerge) down(i int) {
	for n := len(m.heap); ; {
		j := 2*i + 1
		if j >= n {
			return
		}
		if k := j + 1; k < n && m.less(k, j) {
			j = k
		}
		if !m.less(j, i) {
			return
		}
		m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
		i = j
	}
}
