package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"time"

	"speedctx/internal/stats"
)

// The .sxc binary columnar snapshot format (PR 5, DESIGN.md §10). A
// snapshot serializes the columnar views of one city's generated datasets
// so a later run can re-read them at memory speed instead of re-deriving
// them — the property that makes M-Lab-scale re-analysis tractable in the
// big-data studies the paper builds on.
//
// Layout (all integers little-endian unless varint):
//
//	magic "SXC1" | u16 format version | uvarint data version |
//	u8 section count | sections... | 8-byte LE checksum
//
// Each section is: u8 kind | uvarint row count | column blocks in a fixed
// per-kind order. Each column block is: u8 column id | uvarint payload
// length | 8-byte payload checksum | payload. A row section's block ids,
// codecs and struct fields are one table per kind (layout.go), which both
// the encoders below and the block scanner walk. Payload encodings by
// column type:
//
//   - int and timestamp columns: per-row zigzag varint of the delta to the
//     previous row. Timestamp payloads start with a precision flag byte:
//     0 = deltas of whole-second UTC unix times (the common case), 1 =
//     deltas of unix nanoseconds (the MBA generator's step division can
//     land off whole seconds; unlike the second-granular CSV format, the
//     snapshot round-trips those exactly);
//   - float64 columns: raw little-endian IEEE 754 bits, so speeds and RSSI
//     round-trip bit-exactly;
//   - low-cardinality string columns (city, ISP, access, direction, ...):
//     dictionary-coded — a first-seen-order dictionary of unique values,
//     then a per-row uvarint dictionary index;
//   - enum/bool columns (platform, band, radio flag): one byte per row.
//
// The checksum (snapshotChecksum: a 4-lane word-wise rotate-multiply mix
// with a splitmix64 finalizer — corruption detection at memory bandwidth,
// not cryptography) covers every preceding byte; a mismatch, a foreign
// format version, or a foreign data version all fail decoding, which the
// SnapshotStore treats as a cache miss (regenerate, then atomically
// rewrite).
//
// Decoding is built on the streaming block scanner (scan.go): the full
// and pruned decoders run a whole-section-batch scan with fresh buffers,
// so there is exactly one decode engine whether a consumer materializes
// city columns or streams bounded batches.

// SnapshotFormatVersion is the .sxc layout version. It changes only when
// the byte layout itself changes. Version 2 added the per-block checksum
// that lets pruned scans verify exactly the bytes they decode (below).
const SnapshotFormatVersion = 2

// SnapshotFormatVersionZoned is the layout version of files carrying
// zoned row sections (zone-mapped row groups, DESIGN.md §15). Plain
// encodes still emit version 2 byte-for-byte; the decoder accepts both.
const SnapshotFormatVersionZoned = 3

// DataVersion tags the meaning of the rows every .sxc file carries — the
// column semantics of generated and ingested sections alike. It is written
// into every snapshot, sealed ingest segment and compacted store, and any
// file recorded under another data version is rejected as stale, so
// bumping it orphans every live ingest store. Bump it only when a stored
// column changes meaning. A change to what the generators emit for a fixed
// (seed, scale, city) bumps GeneratorVersion instead.
const DataVersion = 2

// GeneratorVersion tags the output of the synthetic-data generators: it
// must be bumped whenever they change output for a fixed (seed, scale,
// city) — a new RNG stream layout, a new sampler inside the TCP simulator,
// a change to experiments.PaperCounts or the scaling rule. It keys the
// generated-city SnapshotStore only, so a bump re-generates cached cities
// without touching ingest segments. Version 1 is everything up to and
// including the per-subscriber streams of DESIGN.md §9; version 2 moved
// tcpmodel's random loss to the exponential skip-ahead.
const GeneratorVersion = 2

var snapshotMagic = [4]byte{'S', 'X', 'C', '1'}

// ErrSnapshotStale marks a structurally valid snapshot whose format or
// data version does not match this binary.
var ErrSnapshotStale = errors.New("dataset: stale snapshot version")

// CitySnapshot bundles the columnar datasets of one generated city. Nil
// sections are simply absent from the encoded file. Android is the
// Android-only Ookla dataset the paper's radio/memory analyses use
// (experiments.CityBundle.AndroidAnalysis); it shares the Ookla section
// codec under its own section kind. Ingest carries live contextualized
// measurements (internal/ingest segments, PR 6) rather than generated data;
// segment files hold exactly that one section.
type CitySnapshot struct {
	Ookla    *OoklaColumns
	MLabRows *MLabRowColumns
	MBA      *MBAColumns
	Android  *OoklaColumns
	Ingest   *IngestColumns
	// Sketches carries serialized bin-mass sketches (DESIGN.md §12):
	// per-city/per-tier mergeable mass grids that let a reader refit BST
	// models without re-reading the raw measurement columns. The section
	// kind is additive — snapshots without it decode as before, and readers
	// that predate it reject files carrying it (a SnapshotStore miss), so
	// DataVersion is unchanged.
	Sketches []SketchBundle
}

const (
	snapKindOokla   = 1
	snapKindMLab    = 2
	snapKindMBA     = 3
	snapKindAndroid = 4
	snapKindIngest  = 5
	snapKindSketch  = 6
	// Zoned variants (format v3, DESIGN.md §15): same column codecs as
	// their base kinds, rows split into zone-mapped groups behind a
	// checksummed zone directory. Batches surface under the base kind.
	snapKindOoklaZoned  = 7
	snapKindIngestZoned = 8
)

// SketchBundle names one persisted sketch: the city it belongs to and the
// upload-tier index of a per-tier download sketch, or UploadSketchTier for
// the city's upload-speed sketch.
type SketchBundle struct {
	City   string
	Tier   int
	Sketch *stats.Sketch
}

// UploadSketchTier is the Tier value marking a city's upload-speed sketch.
const UploadSketchTier = -1

// WriteCitySnapshot encodes the snapshot to w under the current format and
// data versions.
func WriteCitySnapshot(w io.Writer, snap *CitySnapshot) error {
	buf, err := encodeCitySnapshot(snap, DataVersion)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadCitySnapshot decodes a snapshot, verifying magic, versions and
// checksum.
func ReadCitySnapshot(r io.Reader) (*CitySnapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeCitySnapshot(data)
}

// DecodeCitySnapshot is ReadCitySnapshot over an in-memory file image.
func DecodeCitySnapshot(data []byte) (*CitySnapshot, error) {
	snap, _, err := decodeCitySnapshotSel(data, SelectAll())
	return snap, err
}

// decodeCitySnapshotSel is the one decode path: the full decoder runs it
// with everything selected, the pruned-decode tests with a query's
// selection. Both are whole-section-batch runs of the block scanner with
// fresh buffers, so a pruned or streamed column is bit-identical to its
// full decode by construction. Unselected columns are nil in the result;
// unselected sections are absent. Integrity is verified over exactly the
// read set: magic and versions always, plus each materialized column
// against its per-block checksum — corruption in a column the query never
// asked for is invisible to a pruned decode, the same way it is invisible
// to a reader that seeks past it. A full selection takes the whole-file
// checksum path instead (which covers every block).
func decodeCitySnapshotSel(data []byte, sel SnapshotSelection) (*CitySnapshot, DecodeCounters, error) {
	var none DecodeCounters
	const headerMin = 4 + 2 + 1 + 1 + 8
	if len(data) < headerMin {
		return nil, none, errors.New("dataset: snapshot too short")
	}
	// Integrity is selection-scoped (DESIGN.md §13): a full decode hashes
	// the whole image once against the trailer sum (which covers every
	// block sum and payload, so per-block checks would be redundant); a
	// pruned decode skips the trailer pass — it would touch every byte the
	// pruning just avoided — and instead verifies the per-block checksum
	// of each column it materializes. Either way, no byte is trusted
	// without a matching sum; bytes a pruned scan seeks over are simply
	// outside its read set.
	full := sel == SelectAll()
	if full && snapshotChecksum(data[:len(data)-8]) != binary.LittleEndian.Uint64(data[len(data)-8:]) {
		return nil, none, errors.New("dataset: snapshot checksum mismatch")
	}
	sc, err := newBlockScanner(byteSource(data), sel, 0, !full, true)
	if err != nil {
		return nil, none, err
	}
	snap := &CitySnapshot{}
	for sc.Scan() {
		b := sc.Batch()
		// Zoned sections (v3) surface one batch per row group; concatenating
		// them reassembles the logical section. Plain sections arrive as a
		// single batch, which the merge adopts wholesale.
		switch b.Kind {
		case SectionOokla:
			snap.Ookla = ooklaLayout.appendBatch(snap.Ookla, b.Ookla)
		case SectionMLab:
			snap.MLabRows = mlabLayout.appendBatch(snap.MLabRows, b.MLab)
		case SectionMBA:
			snap.MBA = mbaLayout.appendBatch(snap.MBA, b.MBA)
		case SectionAndroid:
			snap.Android = ooklaLayout.appendBatch(snap.Android, b.Ookla)
		case SectionIngest:
			snap.Ingest = ingestLayout.appendBatch(snap.Ingest, b.Ingest)
		case SectionSketch:
			snap.Sketches = b.Sketches
		}
	}
	if err := sc.Err(); err != nil {
		return nil, none, err
	}
	return snap, sc.Counters(), nil
}

// encodeCitySnapshot renders the full file image; dataVersion is a
// parameter so tests can fabricate stale snapshots.
func encodeCitySnapshot(snap *CitySnapshot, dataVersion uint64) ([]byte, error) {
	return encodeCitySnapshotOpts(snap, dataVersion, nil)
}

// encodeCitySnapshotOpts renders the file image; a non-nil zopts switches
// the Ookla and Ingest sections to their zoned v3 forms (and the envelope
// to format version 3). Everything else — and every byte of a plain
// encode — is unchanged from v2.
func encodeCitySnapshotOpts(snap *CitySnapshot, dataVersion uint64, zopts *ZoneOptions) ([]byte, error) {
	e := &snapEnc{}
	ver := uint16(SnapshotFormatVersion)
	if zopts != nil {
		ver = SnapshotFormatVersionZoned
	}
	sections := 0
	for _, present := range []bool{snap.Ookla != nil, snap.MLabRows != nil, snap.MBA != nil, snap.Android != nil, snap.Ingest != nil, len(snap.Sketches) > 0} {
		if present {
			sections++
		}
	}
	e.header(ver, dataVersion, sections)
	err := encodeRows(e, &ooklaLayout, snap.Ookla, snapKindOokla, snapKindOoklaZoned, zopts)
	if err == nil {
		err = encodeRows(e, &mlabLayout, snap.MLabRows, snapKindMLab, 0, nil)
	}
	if err == nil {
		err = encodeRows(e, &mbaLayout, snap.MBA, snapKindMBA, 0, nil)
	}
	if err == nil {
		err = encodeRows(e, &ooklaLayout, snap.Android, snapKindAndroid, 0, nil)
	}
	if err == nil {
		err = encodeRows(e, &ingestLayout, snap.Ingest, snapKindIngest, snapKindIngestZoned, zopts)
	}
	if err != nil {
		return nil, err
	}
	return e.finish(snap.Sketches)
}

// snapshotChecksum detects corruption in a snapshot image: the one-shot
// call of sumState (scan.go), the checksum's one implementation.
func snapshotChecksum(p []byte) uint64 {
	s := newSumState(int64(len(p)))
	s.update(p)
	return s.final()
}

// snapEnc accumulates the file image in buf[head:]. Row sections encode
// their payloads straight into buf (openBlock, closeBlock); a zoned
// section's writer leaves unused room ahead of its groups, which it
// closes by moving the image's start, head, forward.
type snapEnc struct {
	buf  []byte
	head int
}

// header writes the file header at the end of the image.
func (e *snapEnc) header(ver uint16, dataVersion uint64, sections int) {
	e.buf = append(e.buf, snapshotMagic[:]...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, ver)
	e.buf = binary.AppendUvarint(e.buf, dataVersion)
	e.buf = append(e.buf, byte(sections))
}

// finish appends the sketch section when bundles are present and the
// trailer checksum, and returns the image.
func (e *snapEnc) finish(bundles []SketchBundle) ([]byte, error) {
	if len(bundles) > 0 {
		if err := encodeSketchSection(e, bundles); err != nil {
			return nil, err
		}
	}
	img := e.buf[e.head:]
	return binary.LittleEndian.AppendUint64(img, snapshotChecksum(img)), nil
}

// column writes one block: id, payload length, the payload's own checksum,
// then the payload. The per-block sum is what lets a pruned reader verify
// a column without hashing the rest of the file.
func (e *snapEnc) column(id byte, payload []byte) {
	e.buf = append(e.buf, id)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(payload)))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, snapshotChecksum(payload))
	e.buf = append(e.buf, payload...)
}

// openBlock starts a block that column would write, with room for a
// width-byte payload length, and returns where the block starts and the
// image cut after that room, for the payload to be appended to.
func (e *snapEnc) openBlock(width int) (at int, b []byte) {
	at = len(e.buf)
	e.buf = slices.Grow(e.buf, 1+width+8)
	return at, e.buf[:at+1+width+8]
}

// closeBlock takes b, the image with a payload appended after openBlock's
// room, and fills in the block's id, length and checksum. A length whose
// uvarint takes another width than the room moves the payload once, and
// *width learns the new width for the column's next block.
func (e *snapEnc) closeBlock(id byte, at int, width *int, b []byte) {
	start := at + 1 + *width + 8
	n := len(b) - start
	if w := uvarintLen(uint64(n)); w != *width {
		end := at + 1 + w + 8 + n
		if end > cap(b) {
			b = slices.Grow(b, end-len(b))
		}
		b = b[:max(end, len(b))]
		copy(b[end-n:end], b[start:start+n])
		b, start, *width = b[:end], end-n, w
	}
	b[at] = id
	binary.PutUvarint(b[at+1:], uint64(n))
	binary.LittleEndian.PutUint64(b[start-8:], snapshotChecksum(b[start:]))
	e.buf = b
}

// reserve returns b with room for n more bytes, reallocating it once at
// exactly that size when it has less: the image's presizing. slices.Grow
// appends a made slice, which a race-instrumented build allocates as well,
// so there it would allocate the image twice.
func reserve(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	grown := make([]byte, len(b), len(b)+n)
	copy(grown, b)
	return grown
}

// uvarintLen is the width of v's uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (e *snapEnc) section(kind byte, rows int) {
	e.buf = append(e.buf, kind)
	e.buf = binary.AppendUvarint(e.buf, uint64(rows))
}

// Column payload encoders.

func appendDeltaInts(b []byte, v []int) []byte {
	prev := 0
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x-prev))
		prev = x
	}
	return b
}

func appendTimes(b []byte, v []time.Time) ([]byte, error) {
	nanos := false
	for _, t := range v {
		if t.Nanosecond() != 0 {
			nanos = true
			break
		}
	}
	var prev int64
	if !nanos {
		b = append(b, 0)
		for _, t := range v {
			s := t.Unix()
			b = binary.AppendVarint(b, s-prev)
			prev = s
		}
		return b, nil
	}
	b = append(b, 1)
	for _, t := range v {
		if sec := t.Unix(); sec > math.MaxInt64/1000000000 || sec < math.MinInt64/1000000000 {
			return nil, fmt.Errorf("dataset: timestamp %v outside the snapshot's nanosecond range", t)
		}
		ns := t.UnixNano()
		b = binary.AppendVarint(b, ns-prev)
		prev = ns
	}
	return b, nil
}

func appendFloats(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// appendStrings writes a first-seen dictionary, then one index per row.
// Clustered rows come in long runs of one city and ISP, so each pass
// looks the dictionary up once per run of equal values, not once per row.
func appendStrings[T ~string](b []byte, v []T) []byte {
	dict := map[T]int{}
	var names []T
	for i, s := range v {
		if i > 0 && s == v[i-1] {
			continue
		}
		if _, ok := dict[s]; !ok {
			dict[s] = len(names)
			names = append(names, s)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, s := range names {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	idx := 0
	for i, s := range v {
		if i == 0 || s != v[i-1] {
			idx = dict[s]
		}
		b = binary.AppendUvarint(b, uint64(idx))
	}
	return b
}

func appendBools(b []byte, v []bool) []byte {
	for _, x := range v {
		if x {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func appendBytes[T ~int](b []byte, v []T) []byte {
	for _, x := range v {
		b = append(b, byte(x))
	}
	return b
}

// encodeRows writes a present row section under kind, or as a zoned
// section under zonedKind when zopts is set.
func encodeRows[S, R any](e *snapEnc, l *layout[S, R], c *S, kind, zonedKind byte, zopts *ZoneOptions) error {
	switch {
	case c == nil:
		return nil
	case zopts != nil:
		return l.encodeZoned(e, zonedKind, c, zopts)
	}
	return l.encode(e, kind, c)
}

// encodeSketchSection renders the sketch section: one row per bundle,
// the grid headers in the sketch table's columns, then every sketch's
// fixed-point bin masses varint-packed into one shared payload (empty
// bins — the common case in the tails — cost a single byte). The per-row
// sketch version lets a future quantization change invalidate persisted
// sketches without touching DataVersion.
func encodeSketchSection(e *snapEnc, bundles []SketchBundle) error {
	var c sketchColumns
	var masses []byte
	for i, b := range bundles {
		sk := b.Sketch
		if sk == nil {
			return fmt.Errorf("dataset: sketch bundle %d (%s tier %d) carries no sketch", i, b.City, b.Tier)
		}
		c.City = append(c.City, b.City)
		c.Tier = append(c.Tier, b.Tier)
		c.Version = append(c.Version, stats.SketchVersion)
		c.Count = append(c.Count, sk.Count())
		c.Bins = append(c.Bins, sk.Bins())
		c.Lo = append(c.Lo, sk.Lo())
		c.Hi = append(c.Hi, sk.Hi())
		for _, u := range sk.MassView() {
			masses = binary.AppendUvarint(masses, u)
		}
	}
	if err := sketchLayout.encode(e, snapKindSketch, &c); err != nil {
		return err
	}
	e.column(8, masses)
	return nil
}

// EncodeIngestSegment renders a standalone .sxc file image holding one
// ingest section — the unit the write-behind batcher seals. Segments share
// the city-snapshot envelope (magic, versions, checksum), so every .sxc
// reader/fuzzer covers them too.
func EncodeIngestSegment(c *IngestColumns) ([]byte, error) {
	return encodeCitySnapshot(&CitySnapshot{Ingest: c}, DataVersion)
}

// EncodeIngestSegmentSketches is EncodeIngestSegment with the segment's
// per-city tier sketches alongside the rows, so readers (the ingest refresh
// loop, CompactWith) can merge the segment's mass contribution without
// re-binning the raw columns.
func EncodeIngestSegmentSketches(c *IngestColumns, sketches []SketchBundle) ([]byte, error) {
	return encodeCitySnapshot(&CitySnapshot{Ingest: c, Sketches: sketches}, DataVersion)
}
