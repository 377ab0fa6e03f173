package dataset

// Streaming block-scan execution over .sxc snapshots (DESIGN.md §14).
//
// The snapshot format stores every column as one contiguous,
// length-prefixed, per-block-checksummed payload, so a reader that knows
// the block directory can decode any column incrementally: hold a bounded
// window of undecoded payload bytes per selected column, decode rows in
// batches, and never materialize a whole column. BlockScanner is that
// reader. ParseDirectory reads the file's structure (envelope + every
// block header — payloads untouched) into a Directory, which depends on
// no selection; Directory.Scanner then iterates the selected sections
// batch by batch, yielding ColumnsBatch views whose slices live in buffers
// reused across batches and sections. NewBlockScanner is the two steps in
// one; a caller that scans one file repeatedly (the ingest tile server)
// keeps the Directory and pays the parse once. Peak resident memory is
// O(batch × selected columns) — plus one read window per selected column
// when scanning an on-disk file, no larger than its block and recycled
// from section to section, and through Reuse from one scanner to the
// next — however large the file is.
//
// The scanner is also the only decode engine: DecodeCitySnapshot runs it
// with whole-section batches and fresh (non-reused) buffers, so a streamed
// column is bit-identical to its materialized decode by construction, not
// by parallel maintenance of two decoders. It binds each block to its
// struct field through the section's layout table (layout.go), the same
// table the encoders write from.
//
// Integrity is selection-scoped exactly as in §13: a streaming scan
// verifies each selected block against its per-block checksum. Over an
// in-memory image the whole payload is hashed before any row of it is
// decoded; over a file the checksum accumulates as windows are fetched and
// is checked when the block's last byte arrives — so a corrupt block can
// surface after some of its rows were already yielded. Callers must treat
// every batch as provisional until Err returns nil; all the fused
// consumers (tile folds, sketch deposits, compaction) do.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"

	"speedctx/internal/stats"
)

// The mixing constants of the snapshot checksum (sumState).
const (
	sumM1 = 0x9e3779b97f4a7c15
	sumM2 = 0xbf58476d1ce4e5b9
	sumM3 = 0x94d049bb133111eb
	sumM4 = 0xff51afd7ed558ccd
)

// Exported section kinds, for ColumnsBatch consumers.
const (
	SectionOokla   = snapKindOokla
	SectionMLab    = snapKindMLab
	SectionMBA     = snapKindMBA
	SectionAndroid = snapKindAndroid
	SectionIngest  = snapKindIngest
	SectionSketch  = snapKindSketch
)

// DefaultScanBatchRows is the batch size streaming consumers use when the
// caller does not pick one: large enough that per-batch overhead (bounds
// setup, fold dispatch) amortizes, small enough that a batch of every
// column type stays comfortably inside L2.
const DefaultScanBatchRows = 8192

// scanReadChunk is the most a file-backed column cursor fetches at a
// time. One window per selected column bounds file-scan memory at
// O(columns × chunk) independent of file size; a window is no larger than
// its block, so a 4,096-row group's float column costs 32 KiB, not the
// whole chunk.
const scanReadChunk = 256 << 10

// ScanSource is the byte source of a block scan: random access plus a
// fixed size. In-memory images (BytesSource) decode with zero copies; any
// other io.ReaderAt (an *os.File via OpenFileSource) is read through
// bounded windows.
type ScanSource interface {
	io.ReaderAt
	Size() int64
}

// byteSource adapts an in-memory file image. The scanner detects it and
// aliases payload bytes directly instead of copying through read windows.
type byteSource []byte

func (b byteSource) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(b)) {
		return 0, fmt.Errorf("dataset: read at %d outside %d-byte source", off, len(b))
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (b byteSource) Size() int64 { return int64(len(b)) }

// BytesSource wraps an in-memory .sxc image as a ScanSource.
func BytesSource(data []byte) ScanSource { return byteSource(data) }

// FileSource is an open .sxc file as a ScanSource. Close it after the
// scan.
type FileSource struct {
	f    *os.File
	size int64
}

// OpenFileSource opens path for out-of-core scanning.
func OpenFileSource(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{f: f, size: st.Size()}, nil
}

func (s *FileSource) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }
func (s *FileSource) Size() int64                             { return s.size }
func (s *FileSource) Close() error                            { return s.f.Close() }

// sumState is the snapshot checksum (snapshotChecksum is its one-shot
// call), fed in arbitrary write sizes. Four independent rotate-multiply
// lanes consume 32 bytes per step (the serial dependency of a single lane
// would cap throughput well below memory bandwidth on the multi-MB files
// the store reads), then a splitmix64 finalizer mixes the lanes. The
// total length seeds lane 1, so truncations that happen to end on a lane
// boundary still change the sum. Up to 31 bytes that do not yet fill a
// step wait in tail for the next write or the finalizer.
type sumState struct {
	h1, h2, h3, h4 uint64
	tail           [32]byte
	ntail          int
}

func newSumState(totalLen int64) sumState {
	return sumState{h1: uint64(totalLen) + sumM1, h2: sumM2, h3: sumM3, h4: sumM4}
}

func (s *sumState) update(p []byte) {
	if s.ntail > 0 {
		n := copy(s.tail[s.ntail:], p)
		s.ntail += n
		p = p[n:]
		if s.ntail < 32 {
			return
		}
		s.ntail = 0
		s.steps(s.tail[:])
	}
	s.ntail = copy(s.tail[:], s.steps(p))
}

// steps mixes every whole 32-byte step of p into the lanes and returns
// the bytes after them. The lanes live in locals across the loop, which
// keeps the bulk rate of a one-shot hash.
func (s *sumState) steps(p []byte) []byte {
	h1, h2, h3, h4 := s.h1, s.h2, s.h3, s.h4
	for len(p) >= 32 {
		h1 = bits.RotateLeft64(h1^binary.LittleEndian.Uint64(p), 31) * sumM1
		h2 = bits.RotateLeft64(h2^binary.LittleEndian.Uint64(p[8:]), 29) * sumM2
		h3 = bits.RotateLeft64(h3^binary.LittleEndian.Uint64(p[16:]), 27) * sumM3
		h4 = bits.RotateLeft64(h4^binary.LittleEndian.Uint64(p[24:]), 25) * sumM4
		p = p[32:]
	}
	s.h1, s.h2, s.h3, s.h4 = h1, h2, h3, h4
	return p
}

func (s *sumState) final() uint64 {
	h := s.h1 ^ bits.RotateLeft64(s.h2, 17) ^ bits.RotateLeft64(s.h3, 33) ^ bits.RotateLeft64(s.h4, 49)
	p := s.tail[:s.ntail]
	for len(p) >= 8 {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(p), 31) * sumM1
		p = p[8:]
	}
	var tail uint64
	for i := 0; i < len(p); i++ {
		tail |= uint64(p[i]) << (8 * uint(i))
	}
	h = bits.RotateLeft64(h^tail, 31) * sumM1
	h ^= h >> 30
	h *= sumM2
	h ^= h >> 27
	h *= sumM3
	h ^= h >> 31
	return h
}

// blockInfo locates one column block inside the file.
type blockInfo struct {
	id      byte
	off     int64 // payload start
	length  int64
	sum     uint64
	ordinal int // 0-based block index within the file, for error messages
}

// scanSection is one section's entry in the parsed block directory. A
// zoned section (v3) expands into one entry per row group, each under the
// base kind with zone tying it back to the logical section; its rows and
// cols are then the group's share.
type scanSection struct {
	kind byte
	rows int
	cols []blockInfo
	zone *sectionZone
}

// ColumnsBatch is a bounded view of the selected columns of one section:
// Rows rows starting at row Start of a section of SectionRows rows total.
// Exactly one of the section pointers is non-nil, matching Kind (Android
// sections arrive in Ookla, under Kind SectionAndroid). The slices live in
// buffers the scanner reuses, from batch to batch and from one section or
// row group to the next: they are valid only until the next Scan call,
// so a consumer copies what it keeps. Only the selected columns are
// non-nil. String values are dictionary entries that outlive the scan.
// The sketch section is delivered whole, as a single batch carrying
// Sketches, which the consumer may keep.
type ColumnsBatch struct {
	Kind        int
	Start       int
	Rows        int
	SectionRows int
	Ookla       *OoklaColumns
	MLab        *MLabRowColumns
	MBA         *MBAColumns
	Ingest      *IngestColumns
	Sketches    []SketchBundle
}

// BlockScanner iterates the selected sections of one .sxc file in bounded
// row batches. Use like bufio.Scanner:
//
//	sc, err := dataset.NewBlockScanner(src, sel, batchRows)
//	for sc.Scan() {
//	    b := sc.Batch() // valid until the next Scan call
//	    ...
//	}
//	err = sc.Err()
//
// A scanner is single-goroutine; scan multiple files concurrently with one
// scanner each.
type BlockScanner struct {
	src    ScanSource
	mem    []byte // non-nil for byteSource: alias payloads, skip copies
	sel    SnapshotSelection
	batch  int
	verify bool // per-block checksums (off only for the trailer-verified full decode)
	fresh  bool // allocate batch slices fresh instead of reusing (decode mode)
	ctr    DecodeCounters
	err    error
	done   bool
	out    ColumnsBatch
	free   []*blockCursor // cursors of closed sections, read windows kept, for reuse

	sections []scanSection // the shared, read-only parsed directory
	secIdx   int           // next section to enter
	secRows  int           // rows of the entered section (one group, if zoned)
	secDone  int           // rows already yielded from it
	curZone  *sectionZone
	exec     []colExec

	// Reused batch containers, one per section codec.
	ookla  OoklaColumns
	mlab   MLabRowColumns
	mba    MBAColumns
	ingest IngestColumns
}

// colExec decodes one selected column's share of a batch.
type colExec struct {
	cur *blockCursor
	run func(rows int) error
}

// NewBlockScanner parses src's envelope and block directory and prepares a
// streaming scan of the selected columns: ParseDirectory, then
// Directory.Scanner. batchRows <= 0 selects DefaultScanBatchRows. The
// envelope (magic, format version, data version) and the structural
// integrity of every block header are validated here; payload bytes of
// selected columns are verified against their per-block checksums as the
// scan reaches them.
func NewBlockScanner(src ScanSource, sel SnapshotSelection, batchRows int) (*BlockScanner, error) {
	d, err := ParseDirectory(src)
	if err != nil {
		return nil, err
	}
	return d.Scanner(src, sel, batchRows)
}

// newBlockScanner is NewBlockScanner plus the decode-path knobs: batchRows
// == 0 means whole-section batches, verify toggles per-block checksums
// (the full decoder verified the trailer already), fresh makes every batch
// allocate new slices so the decode path can keep them.
func newBlockScanner(src ScanSource, sel SnapshotSelection, batchRows int, verify, fresh bool) (*BlockScanner, error) {
	d, err := ParseDirectory(src)
	if err != nil {
		return nil, err
	}
	return d.scanner(src, sel, batchRows, verify, fresh)
}

// Directory is a parsed .sxc block directory: the envelope and every
// section's block extents and zone maps. The structural parse does not
// depend on any selection, so one Directory makes scanners for every
// selection and predicate; it is read-only once built and safe to share
// between goroutines. A caller that scans one file repeatedly parses it
// once and reuses it while the file's Size and SnapshotTrailer stay the
// same.
type Directory struct {
	size     int64
	sections []scanSection
}

// Size is the byte size of the image d was parsed from.
func (d *Directory) Size() int64 { return d.size }

// SnapshotTrailer reads src's 8-byte trailer: the checksum of every byte
// before it. A file rewritten with other content (a compaction renaming a
// new image into place, a reused inode) shows a different trailer, while
// payload bytes changed in place keep it and fail their per-block
// checksums during the scan instead.
func SnapshotTrailer(src ScanSource) (uint64, error) {
	var b [8]byte
	if src.Size() < int64(len(b)) {
		return 0, errors.New("dataset: snapshot too short")
	}
	if _, err := readAtLeast(src, b[:], src.Size()-8, len(b)); err != nil {
		return 0, fmt.Errorf("dataset: snapshot: trailer: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Scanner prepares a streaming scan of the selected columns of src, which
// must hold the image d was parsed from. batchRows <= 0 selects
// DefaultScanBatchRows.
func (d *Directory) Scanner(src ScanSource, sel SnapshotSelection, batchRows int) (*BlockScanner, error) {
	if batchRows <= 0 {
		batchRows = DefaultScanBatchRows
	}
	return d.scanner(src, sel, batchRows, true, false)
}

func (d *Directory) scanner(src ScanSource, sel SnapshotSelection, batchRows int, verify, fresh bool) (*BlockScanner, error) {
	if src.Size() != d.size {
		return nil, fmt.Errorf("dataset: snapshot: source holds %d bytes, its directory %d", src.Size(), d.size)
	}
	if batchRows <= 0 {
		batchRows = int(^uint(0) >> 1) // whole-section batches
	}
	s := &BlockScanner{
		src: src, sel: sel, sections: d.sections,
		batch: batchRows, verify: verify, fresh: fresh,
	}
	if b, ok := src.(byteSource); ok {
		s.mem = b
	}
	s.tallySkipped()
	return s, nil
}

// Reuse hands the buffers of prev, a scanner that ran to a clean end, to
// s before s's first Scan: prev's free cursors with their read windows,
// and its batch containers with their column capacity. A repeated query
// over a few segments then decodes into the same buffers from segment to
// segment and query to query instead of allocating them per scanner.
// prev keeps its counters but gives up its buffers and last batch. Reuse
// leaves s as it is when prev is nil or stopped early or on an error.
func (s *BlockScanner) Reuse(prev *BlockScanner) {
	if prev == nil || prev == s || !prev.done || prev.err != nil || s.secIdx > 0 {
		return
	}
	s.free, prev.free = append(prev.free, s.free...), nil
	s.ookla, s.mlab, s.mba, s.ingest = prev.ookla, prev.mlab, prev.mba, prev.ingest
	prev.ookla, prev.mlab, prev.mba, prev.ingest = OoklaColumns{}, MLabRowColumns{}, MBAColumns{}, IngestColumns{}
	prev.out = ColumnsBatch{}
}

func (s *BlockScanner) fail(format string, args ...any) error {
	err := dirErr(format, args...)
	if s.err == nil {
		s.err = err
	}
	return err
}

func dirErr(format string, args ...any) error {
	return fmt.Errorf("dataset: snapshot: "+format, args...)
}

// dirReader walks the structural bytes of the file (headers, not
// payloads) through a small buffered window. Over an in-memory image it
// aliases the image directly; over a file it buffers ~4KiB at a time,
// accepting short fills as long as the bytes actually requested arrived —
// a read-ahead past a truncation must not fail a parse that never needed
// those bytes.
type dirReader struct {
	src     ScanSource
	mem     []byte
	size    int64
	off     int64
	buf     []byte
	at      int64 // file offset of buf[0]
	scratch []byte
}

func (r *dirReader) bytes(n int) ([]byte, error) {
	if r.off+int64(n) > r.size {
		return nil, errors.New("dataset: snapshot: truncated")
	}
	if r.mem != nil {
		p := r.mem[r.off : r.off+int64(n)]
		r.off += int64(n)
		return p, nil
	}
	if r.off < r.at || r.off+int64(n) > r.at+int64(len(r.buf)) {
		want := int64(4096)
		if want < int64(n) {
			want = int64(n)
		}
		if r.off+want > r.size {
			want = r.size - r.off
		}
		if int64(cap(r.scratch)) < want {
			r.scratch = make([]byte, want)
		}
		buf := r.scratch[:want]
		got, err := readAtLeast(r.src, buf, r.off, n)
		if err != nil {
			return nil, errors.New("dataset: snapshot: truncated")
		}
		r.buf, r.at = buf[:got], r.off
	}
	p := r.buf[r.off-r.at : r.off-r.at+int64(n)]
	r.off += int64(n)
	return p, nil
}

// readAtLeast reads at least need bytes at off, best-effort up to len(p):
// the scanner's one positional read. need == len(p) reads p exactly.
func readAtLeast(src ScanSource, p []byte, off int64, need int) (int, error) {
	n := 0
	for n < need {
		m, err := src.ReadAt(p[n:], off+int64(n))
		n += m
		if n >= need {
			break
		}
		if err != nil {
			return n, err
		}
		if m == 0 {
			return n, errors.New("truncated read")
		}
	}
	return n, nil
}

func (r *dirReader) u8() (byte, error) {
	p, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (r *dirReader) uvarint() (uint64, error) {
	// Peek up to MaxVarintLen64 bytes without committing past the varint.
	n := int64(binary.MaxVarintLen64)
	if r.off+n > r.size {
		n = r.size - r.off
	}
	save := r.off
	p, err := r.bytes(int(n))
	if err != nil {
		return 0, err
	}
	v, w := binary.Uvarint(p)
	if w <= 0 {
		return 0, errors.New("dataset: snapshot: bad uvarint")
	}
	r.off = save + int64(w)
	return v, nil
}

// ParseDirectory validates src's envelope and records every section's
// block extents. It reads only structural bytes; payloads are skipped by
// seek.
func ParseDirectory(src ScanSource) (*Directory, error) {
	d := &Directory{size: src.Size()}
	const headerMin = 4 + 2 + 1 + 1 + 8
	if d.size < headerMin {
		return nil, errors.New("dataset: snapshot too short")
	}
	r := &dirReader{src: src, size: d.size}
	if b, ok := src.(byteSource); ok {
		r.mem = b
	}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != string(snapshotMagic[:]) {
		return nil, errors.New("dataset: not a .sxc snapshot")
	}
	vb, err := r.bytes(2)
	if err != nil {
		return nil, err
	}
	ver := binary.LittleEndian.Uint16(vb)
	if ver != SnapshotFormatVersion && ver != SnapshotFormatVersionZoned {
		return nil, fmt.Errorf("%w: format version %d, want %d or %d", ErrSnapshotStale, ver, SnapshotFormatVersion, SnapshotFormatVersionZoned)
	}
	dv, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if dv != DataVersion {
		return nil, fmt.Errorf("%w: data version %d, want %d", ErrSnapshotStale, dv, DataVersion)
	}
	nsec, err := r.u8()
	if err != nil {
		return nil, err
	}
	body := d.size - 8 // trailer checksum
	ordinal := 0
	readCols := func(ncols int) ([]blockInfo, error) {
		cols := make([]blockInfo, 0, ncols)
		for id := 1; id <= ncols; id++ {
			got, err := r.u8()
			if err != nil {
				return nil, err
			}
			if int(got) != id {
				return nil, dirErr("column id %d, want %d", got, id)
			}
			length, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if avail := body - r.off; avail < 8 || length > uint64(avail-8) {
				return nil, dirErr("column %d truncated", id)
			}
			sb, err := r.bytes(8)
			if err != nil {
				return nil, err
			}
			bi := blockInfo{
				id: byte(id), off: r.off, length: int64(length),
				sum: binary.LittleEndian.Uint64(sb), ordinal: ordinal,
			}
			ordinal++
			r.off += bi.length
			cols = append(cols, bi)
		}
		return cols, nil
	}
	for sec := 0; sec < int(nsec); sec++ {
		kind, err := r.u8()
		if err != nil {
			return nil, err
		}
		rows64, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if rows64 > uint64(body) {
			return nil, dirErr("section kind %d: absurd row count %d", kind, rows64)
		}
		base, zoned := kind, false
		switch kind {
		case snapKindOoklaZoned:
			base, zoned = snapKindOokla, true
		case snapKindIngestZoned:
			base, zoned = snapKindIngest, true
		}
		ncols, ok := sectionColumnCount(kind)
		if !ok {
			return nil, dirErr("unknown section kind %d", kind)
		}
		if !zoned {
			ss := scanSection{kind: kind, rows: int(rows64)}
			if ss.cols, err = readCols(ncols); err != nil {
				return nil, err
			}
			d.sections = append(d.sections, ss)
			continue
		}
		if ver != SnapshotFormatVersionZoned {
			return nil, dirErr("zoned section kind %d in a format-v%d snapshot", kind, ver)
		}
		// Zone directory: length, checksum, payload. The checksum is
		// verified before any group header is trusted, so a corrupt zone
		// map fails the scan here — it can never mis-route row groups.
		zlen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if avail := body - r.off; avail < 8 || zlen > uint64(avail-8) {
			return nil, dirErr("section kind %d: zone directory truncated", kind)
		}
		zb, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		zsum := binary.LittleEndian.Uint64(zb)
		zp, err := r.bytes(int(zlen))
		if err != nil {
			return nil, err
		}
		if snapshotChecksum(zp) != zsum {
			return nil, dirErr("section kind %d: zone directory checksum mismatch", kind)
		}
		dir, err := parseZoneDir(zp, ncols, int(rows64))
		if err != nil {
			return nil, dirErr("section kind %d: %v", kind, err)
		}
		start := 0
		for gi := range dir.groups {
			ss := scanSection{
				kind: base, rows: dir.groups[gi].rows,
				zone: &sectionZone{dir: dir, gi: gi, first: gi == 0, start: start, total: int(rows64)},
			}
			start += ss.rows
			if ss.cols, err = readCols(ncols); err != nil {
				return nil, err
			}
			d.sections = append(d.sections, ss)
		}
	}
	if r.off != body {
		return nil, fmt.Errorf("dataset: snapshot has %d trailing bytes", body-r.off)
	}
	return d, nil
}

// tallySkipped counts the never-selected blocks as skipped up front,
// mirroring the materializing decoders' counters: unselected sections and
// columns count as skipped here, selected ones count as decoded when the
// scan materializes them. Zoned groups share one logical section, which
// must count once.
func (s *BlockScanner) tallySkipped() {
	for _, ss := range s.sections {
		sel := s.sectionSelection(ss.kind)
		if sel == 0 {
			if ss.zone == nil || ss.zone.first {
				s.ctr.SectionsSkipped++
			}
			s.ctr.ColumnsSkipped += len(ss.cols)
			for _, bi := range ss.cols {
				s.ctr.BytesSkipped += bi.length
			}
			continue
		}
		for _, bi := range ss.cols {
			if !sel.Has(bi.id) {
				s.ctr.ColumnsSkipped++
				s.ctr.BytesSkipped += bi.length
			}
		}
	}
}

func sectionColumnCount(kind byte) (int, bool) {
	switch kind {
	case snapKindOokla, snapKindAndroid, snapKindOoklaZoned:
		return len(ooklaLayout.cols), true
	case snapKindMLab:
		return len(mlabLayout.cols), true
	case snapKindMBA:
		return len(mbaLayout.cols), true
	case snapKindIngest, snapKindIngestZoned:
		return len(ingestLayout.cols), true
	case snapKindSketch:
		return len(sketchLayout.cols) + 1, true // the table, then the masses
	}
	return 0, false
}

func (s *BlockScanner) sectionSelection(kind byte) ColumnSet {
	switch kind {
	case snapKindOokla:
		return s.sel.Ookla
	case snapKindMLab:
		return s.sel.MLab
	case snapKindMBA:
		return s.sel.MBA
	case snapKindAndroid:
		return s.sel.Android
	case snapKindIngest:
		return s.sel.Ingest
	case snapKindSketch:
		if s.sel.Sketches {
			return AllColumns
		}
	}
	return 0
}

// Counters reports what the scan has materialized versus seeked over so
// far; after Err() == nil it equals what a pruned decode would report.
func (s *BlockScanner) Counters() DecodeCounters { return s.ctr }

// Err returns the first error the scan hit, nil after a clean end.
func (s *BlockScanner) Err() error { return s.err }

// Batch returns the batch produced by the last successful Scan. Its
// slices are invalidated by the next Scan call unless the scanner was
// built by the decode path (fresh buffers).
func (s *BlockScanner) Batch() *ColumnsBatch { return &s.out }

// Scan advances to the next batch. It returns false at the end of the
// file or on error — check Err. An empty selected section yields exactly
// one zero-row batch, so consumers that track sections still see it.
func (s *BlockScanner) Scan() bool {
	if s.err != nil || s.done {
		return false
	}
	for {
		if s.exec != nil {
			// Active row section: emit its next batch.
			n := s.secRows - s.secDone
			if n > s.batch {
				n = s.batch
			}
			if err := s.runBatch(n); err != nil {
				return false
			}
			s.secDone += n
			if s.secDone >= s.secRows {
				if !s.closeSection() {
					return false
				}
			}
			return true
		}
		// Advance to the next selected section.
		if s.secIdx >= len(s.sections) {
			s.done = true
			return false
		}
		ss := s.sections[s.secIdx]
		s.secIdx++
		sel := s.sectionSelection(ss.kind)
		if sel == 0 {
			continue
		}
		if ss.zone == nil || ss.zone.first {
			s.ctr.SectionsDecoded++
		}
		if ss.kind == snapKindSketch {
			bundles, err := s.decodeSketchSection(ss)
			if err != nil {
				return false
			}
			s.out = ColumnsBatch{Kind: SectionSketch, Rows: ss.rows, SectionRows: ss.rows, Sketches: bundles}
			return true
		}
		if z := ss.zone; z != nil {
			// Predicate pushdown (DESIGN.md §15): a zone-mapped row group
			// whose recorded ranges cannot intersect the predicate is
			// skipped by seek — its blocks leave the read set entirely,
			// like unselected columns. Empty groups always surface, so the
			// one-zero-row-batch contract for empty sections holds.
			if p := s.sel.Predicate; p != nil && ss.rows > 0 && !z.matches(p, int(ss.kind)) {
				s.ctr.BlocksSkipped++
				s.ctr.RowsSkipped += int64(ss.rows)
				for _, bi := range ss.cols {
					if sel.Has(bi.id) {
						s.ctr.ColumnsSkipped++
						s.ctr.BytesSkipped += bi.length
					}
				}
				continue
			}
			s.ctr.BlocksScanned++
		}
		if err := s.bindSection(ss, sel); err != nil {
			return false
		}
		s.secRows, s.secDone = ss.rows, 0
		s.curZone = ss.zone
	}
}

// closeSection verifies every cursor consumed its payload exactly, hands
// the cursors and their read windows to the free list and resets the
// per-section state. Cursors go back in reverse, so the next section's
// first column takes this one's first window: a zoned section's groups
// repeat one column layout, and each column's window already fits its
// blocks.
func (s *BlockScanner) closeSection() bool {
	for _, ex := range s.exec {
		if err := ex.cur.finish(); err != nil {
			return false
		}
	}
	for i := len(s.exec) - 1; i >= 0; i-- {
		s.free = append(s.free, s.exec[i].cur)
	}
	s.exec = nil
	return true
}

// runBatch decodes n rows of every bound column into the batch container.
// Batches of a zoned group report logical-section coordinates: Start is
// the group's offset in the section, SectionRows the section's full row
// count — so consumers see one coherent section however it was grouped.
func (s *BlockScanner) runBatch(n int) error {
	s.out.Start = s.secDone
	s.out.Rows = n
	s.out.SectionRows = s.secRows
	if z := s.curZone; z != nil {
		s.out.Start = z.start + s.secDone
		s.out.SectionRows = z.total
	}
	for _, ex := range s.exec {
		if err := ex.run(n); err != nil {
			return err
		}
	}
	return nil
}

// decodeSketchSection materializes the sketch section as one batch. Its
// fixed blocks bind through sketchLayout into a fresh container and
// decode whole, like a one-batch row section; the masses block is
// partitioned by the Bins column, so it decodes after them, row by row.
// Sketch sections are metadata-sized (one row per city×tier), never split
// into batches.
func (s *BlockScanner) decodeSketchSection(ss scanSection) ([]SketchBundle, error) {
	var c sketchColumns
	fixed := len(sketchLayout.cols)
	if err := sketchLayout.bind(s, scanSection{rows: ss.rows, cols: ss.cols[:fixed]}, AllColumns, &c); err != nil {
		return nil, err
	}
	for _, ex := range s.exec {
		if err := ex.run(ss.rows); err != nil {
			return nil, err
		}
	}
	if !s.closeSection() {
		return nil, s.err
	}
	mc, err := s.newCursor(ss.cols[fixed])
	if err != nil {
		return nil, err
	}
	out := make([]SketchBundle, 0, ss.rows)
	for i := 0; i < ss.rows; i++ {
		nb := c.Bins[i]
		// Every mass is at least one byte, so the remaining payload bounds
		// the bin count before any allocation.
		if nb < 2 || int64(nb) > mc.remaining() {
			return nil, s.fail("sketch %d: %d bins cannot fit %d payload bytes", i, nb, mc.remaining())
		}
		mass := make([]uint64, nb)
		for j := range mass {
			if mc.remaining() == 0 {
				return nil, s.fail("sketch %d: truncated masses", i)
			}
			u, w := mc.tryUvarint()
			if w <= 0 {
				return nil, s.fail("sketch %d: bad mass varint at bin %d", i, j)
			}
			mass[j] = u
		}
		if c.Count[i] < 0 {
			return nil, s.fail("sketch %d: negative count", i)
		}
		sk, err := stats.SketchFromParts(c.Lo[i], c.Hi[i], mass, uint64(c.Count[i]), c.Version[i])
		if err != nil {
			if errors.Is(err, stats.ErrSketchVersion) {
				// A foreign quantization scheme is staleness, not
				// corruption: stores treat it as a cache miss.
				werr := fmt.Errorf("%w: sketch %d: %v", ErrSnapshotStale, i, err)
				if s.err == nil {
					s.err = werr
				}
				return nil, werr
			}
			return nil, s.fail("sketch %d (%s tier %d): %v", i, c.City[i], c.Tier[i], err)
		}
		out = append(out, SketchBundle{City: c.City[i], Tier: c.Tier[i], Sketch: sk})
	}
	if r := mc.remaining(); r != 0 {
		return nil, s.fail("sketch section: %d trailing mass bytes", r)
	}
	return out, nil
}

// bindSection builds cursors and decode closures for the selected columns
// of one row section and points the output batch at the right container:
// the scanner's reused one, or a fresh one in decode mode.
func (s *BlockScanner) bindSection(ss scanSection, sel ColumnSet) error {
	s.exec = s.exec[:0]
	s.out = ColumnsBatch{Kind: int(ss.kind), SectionRows: ss.rows}
	switch ss.kind {
	case snapKindOokla, snapKindAndroid:
		s.out.Ookla = container(&s.ookla, s.fresh)
		return ooklaLayout.bind(s, ss, sel, s.out.Ookla)
	case snapKindMLab:
		s.out.MLab = container(&s.mlab, s.fresh)
		return mlabLayout.bind(s, ss, sel, s.out.MLab)
	case snapKindMBA:
		s.out.MBA = container(&s.mba, s.fresh)
		return mbaLayout.bind(s, ss, sel, s.out.MBA)
	case snapKindIngest:
		s.out.Ingest = container(&s.ingest, s.fresh)
		return ingestLayout.bind(s, ss, sel, s.out.Ingest)
	}
	return s.fail("unknown section kind %d", ss.kind)
}

func container[S any](reused *S, fresh bool) *S {
	if fresh {
		return new(S)
	}
	return reused
}
