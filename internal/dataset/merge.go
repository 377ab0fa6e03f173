package dataset

// The compaction merge (DESIGN.md §14): k sorted runs of ingest rows, one
// per input file, merged into one set of output columns. A sealed segment
// is already a run in the clustered canonical order, so compaction reads
// each one through its BlockScanner a batch at a time instead of copying
// every row into one slice and sorting it again.

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

// MergeIngestRuns merges the ingest sections of runs into one set of
// columns and returns them with each run's sketch bundles, in run order.
// The merged rows are in the clustered canonical order under
// opts.Quadkey (SortIngestRowsClustered), or, with opts nil, in the v2
// order (SortIngestRows): the rows a sort of every run's rows
// concatenated gives, so the bytes an encoder writes of them are the
// same too.
//
// A run whose one ingest section is zoned at opts' zoom and location seed
// is in that order already. It streams through a BlockScanner in batches
// of batchRows (0 = DefaultScanBatchRows), and the merge checks its order
// as it reads: a row that sorts before the one ahead of it fails the
// merge with an error naming the run. Any other run (a v2 section, a
// foreign zoom or seed, every run of a v2 merge) is read whole and sorted
// alone first. Either way the merge holds the output columns, one batch
// per streamed run and the sorted runs' columns; it builds no row structs
// beyond the one row a tie between two heads compares.
func MergeIngestRuns(runs []IngestRun, opts *ZoneOptions, batchRows int) (*IngestColumns, [][]SketchBundle, error) {
	var key func(city string, userID int) uint64
	if opts != nil {
		if err := opts.validate(); err != nil {
			return nil, nil, err
		}
		key = opts.Quadkey
	}
	m := &ingestMerge{key: key}
	all := make([]*mergeRun, len(runs))
	total := 0
	for i, in := range runs {
		r, err := m.open(in, opts, batchRows)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		all[i] = r
		total += in.Dir.IngestRows()
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	out := newIngestColumns(total)
	if err := m.merge(out); err != nil {
		return nil, nil, err
	}
	sketches := make([][]SketchBundle, len(all))
	for i, r := range all {
		sketches[i] = r.sketches
	}
	return out, sketches, nil
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

// merge moves the least head into out, which holds as many rows as the
// runs' directories declare, until every run is drained.
func (m *ingestMerge) merge(out *IngestColumns) error {
	for o := 0; len(m.heap) > 0; o++ {
		r := m.heap[0]
		out.copyRow(o, r.cols, r.i)
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
