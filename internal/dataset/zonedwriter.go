package dataset

// The zoned-section group writer (DESIGN.md §14, §15). Every zoned row
// section is written through it a row group at a time: the whole-column
// encoders hand it sliced views, the seal hands it each group of its
// sorted batch as it columnizes it, and the compaction merge hands it
// each group as the merge fills it. None of them holds the section's
// output columns whole, only one group of them and the image.

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// zonedWriter writes one zoned section into e. The zone directory sits
// before the groups but is known only once the last group is in, so the
// writer reserves a gap ahead of the groups as large as any directory of
// its group count can be. finish writes the section header and the
// directory into the end of the gap and moves the image's earlier bytes
// (the file header, earlier sections) up against them, so the groups are
// written once and never copied.
type zonedWriter[S, R any] struct {
	l         *layout[S, R]
	e         *snapEnc
	kind      byte
	rows      int // the section's declared rows
	blockRows int
	groups    int // the section's group count
	done      int // groups written
	written   int // rows written
	gapAt     int // the gap is e.buf[gapAt:gapEnd]
	gapEnd    int
	grow      bool // size the image from the first group once it is in
	zb        zoneDirBuilder
	widths    []int // per column: the width its next payload length is expected to take
}

// zoneGroupMax bounds one group's zone-directory entry over ncols
// columns: three uvarints, then a presence byte and two float64 bounds
// per column.
func zoneGroupMax(ncols int) int { return 3*binary.MaxVarintLen64 + ncols*17 }

// newZonedWriter starts a zoned section of rows rows under kind at the
// end of e. sizeHint is the bytes the rest of the image is expected to
// take; with 0 the writer sizes the image once the first group is in,
// from that group's size (see group).
func newZonedWriter[S, R any](l *layout[S, R], e *snapEnc, kind byte, rows int, opts *ZoneOptions, sizeHint int) *zonedWriter[S, R] {
	br := opts.blockRows()
	w := &zonedWriter[S, R]{l: l, e: e, kind: kind, rows: rows, blockRows: br,
		groups: max(1, (rows+br-1)/br), grow: sizeHint <= 0}
	w.zb.header(opts, w.groups)
	zoneMax := len(w.zb.b) + w.groups*zoneGroupMax(len(l.cols))
	w.zb.b = slices.Grow(w.zb.b, zoneMax-len(w.zb.b))
	// kind and row count, then the directory's length, checksum and payload.
	gap := 1 + binary.MaxVarintLen64 + binary.MaxVarintLen64 + 8 + zoneMax
	w.gapAt = len(e.buf)
	w.gapEnd = w.gapAt + gap
	e.buf = reserve(e.buf, gap+max(sizeHint, 0))[:w.gapEnd]
	w.widths = l.lengthWidths(min(rows, br))
	return w
}

// group writes the next row group: c holds its rows, which must number
// the block size (the section's remainder for the last group, 0 for the
// one group of an empty section), and keys their cluster keys.
func (w *zonedWriter[S, R]) group(c *S, keys []uint64) error {
	n, err := w.l.rowCount(c)
	if err != nil {
		return err
	}
	if want := min(w.blockRows, w.rows-w.written); w.done == w.groups || n != want || len(keys) != n {
		return fmt.Errorf("dataset: zoned %s group %d holds %d rows and %d keys, want %d of the declared %d rows",
			w.l.name, w.done, n, len(keys), want, w.rows)
	}
	w.zb.group(n, keys)
	for _, f := range w.l.cols {
		f.zone(&w.zb, c)
	}
	at := len(w.e.buf)
	if err := w.l.encodeColumns(w.e, c, w.widths); err != nil {
		return err
	}
	if w.done == 0 && w.grow {
		// Room for the other groups at the first group's size and an
		// eighth: groups differ a little in size, and running out near
		// the end would regrow the whole image by a quarter.
		first := len(w.e.buf) - at
		w.e.buf = reserve(w.e.buf, (first+first/8)*(w.groups-1))
	}
	w.done++
	w.written += n
	return nil
}

// finish writes the section header and the zone directory into the end
// of the gap and moves the image's earlier bytes up against them.
func (w *zonedWriter[S, R]) finish() error {
	if w.done != w.groups {
		return fmt.Errorf("dataset: zoned %s section got %d of its %d groups", w.l.name, w.done, w.groups)
	}
	dir := w.zb.b
	n := 1 + uvarintLen(uint64(w.rows)) + uvarintLen(uint64(len(dir))) + 8 + len(dir)
	at := w.gapEnd - n
	p := w.e.buf[at:w.gapEnd]
	p[0] = w.kind
	i := 1 + binary.PutUvarint(p[1:], uint64(w.rows))
	i += binary.PutUvarint(p[i:], uint64(len(dir)))
	binary.LittleEndian.PutUint64(p[i:], snapshotChecksum(dir))
	copy(p[i+8:], dir)
	moved := copy(w.e.buf[at-(w.gapAt-w.e.head):at], w.e.buf[w.e.head:w.gapAt])
	w.e.head = at - moved
	return nil
}

// ingestSegmentWriter writes a one-section zoned ingest segment image a
// row group at a time: the bytes EncodeIngestSegmentZoned writes of the
// same rows, without the rows' whole columns. Groups go in through group
// or groupRows, in order; finish appends the sketch bundles and returns
// the image.
type ingestSegmentWriter struct {
	e      snapEnc
	w      *zonedWriter[IngestColumns, IngestRow]
	opts   *ZoneOptions
	rows   *IngestColumns // groupRows' reused group
	keys   []uint64
	counts int // offset of the section count from the image's start
}

// newIngestSegmentWriter starts a segment of rows rows zoned under opts.
// sizeHint is the bytes the image is expected to take (0 when unknown);
// the image is allocated at that size once.
func newIngestSegmentWriter(rows int, opts *ZoneOptions, sizeHint int) (*ingestSegmentWriter, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := &ingestSegmentWriter{opts: opts}
	s.e.header(SnapshotFormatVersionZoned, DataVersion, 1)
	s.counts = len(s.e.buf) - 1
	s.w = newZonedWriter(&ingestLayout, &s.e, snapKindIngestZoned, rows, opts, sizeHint)
	return s, nil
}

// groupRows writes the next row group from row structs, columnized into
// one reused group buffer, deriving their keys with opts.Quadkey.
func (s *ingestSegmentWriter) groupRows(rows []IngestRow) error {
	if s.rows == nil {
		n := min(s.w.blockRows, s.w.rows)
		s.rows, s.keys = newIngestColumns(n), make([]uint64, n)
	}
	if len(rows) > len(s.keys) {
		return fmt.Errorf("dataset: %d-row ingest group, over the block size or the declared %d rows", len(rows), s.w.rows)
	}
	g := ingestLayout.slice(s.rows, 0, len(rows))
	for i := range rows {
		g.setRow(i, &rows[i])
		s.keys[i] = s.opts.Quadkey(rows[i].City, rows[i].UserID)
	}
	return s.w.group(g, s.keys[:len(rows)])
}

// finish writes the zone directory, appends the sketch section when
// sketches holds bundles, and returns the image.
func (s *ingestSegmentWriter) finish(sketches []SketchBundle) ([]byte, error) {
	if err := s.w.finish(); err != nil {
		return nil, err
	}
	if len(sketches) > 0 {
		s.e.buf[s.e.head+s.counts] = 2
	}
	return s.e.finish(sketches)
}

// EncodeIngestRowsZoned is EncodeIngestSegmentZoned(ColumnizeIngest(rows),
// sketches, opts) a row group at a time: only one group of rows is
// columnized at once.
func EncodeIngestRowsZoned(rows []IngestRow, sketches []SketchBundle, opts *ZoneOptions) ([]byte, error) {
	s, err := newIngestSegmentWriter(len(rows), opts, 0)
	if err != nil {
		return nil, err
	}
	br := s.w.blockRows
	for lo := 0; lo == 0 || lo < len(rows); lo += br {
		if err := s.groupRows(rows[lo:min(lo+br, len(rows))]); err != nil {
			return nil, err
		}
	}
	return s.finish(sketches)
}
