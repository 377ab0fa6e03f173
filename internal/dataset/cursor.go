package dataset

// Per-column streaming decode cursors for the block scanner (scan.go).
// Each selected column of the active section gets one blockCursor holding
// its undecoded window and delta/dictionary state; the typed decoders
// below are the streaming forms of the §10 payload codecs, validated and
// error-worded identically so a streamed decode fails exactly where a
// materialized decode would. Over a file, a cursor's window is sized to
// what its block has left (at most scanReadChunk), and a closed section's
// cursors, windows included, serve the next section's columns (and, via
// BlockScanner.Reuse, the next scanner's), so a scan of many small row
// groups allocates its windows once.

import (
	"encoding/binary"
	"time"
)

// blockCursor streams one column block's payload. Over an in-memory
// source the window aliases the whole payload (verified up front, like
// the materializing decoders); over a file it is an owned buffer, at most
// the block's size, refilled in scanReadChunk pieces, with the per-block
// checksum accumulating as bytes arrive and checked when the last byte is
// fetched. Cursors, buffer included, go back to the scanner's free list
// when their section closes.
type blockCursor struct {
	s      *BlockScanner
	bi     blockInfo
	verify bool

	win   []byte // undecoded window
	wpos  int    // next undecoded byte within win
	owned []byte // file mode: backing buffer (nil when aliasing memory)
	next  int64  // file mode: offset of the first unfetched payload byte
	left  int64  // file mode: payload bytes not yet fetched
	sum   sumState

	prev   int64 // delta accumulator (int and timestamp columns)
	tsMode byte  // timestamp precision flag
	row    int   // rows decoded so far, for error messages
}

// newCursor opens a cursor over one block and counts it as decoded. It
// reuses a closed section's cursor, and its read window, when one is free.
func (s *BlockScanner) newCursor(bi blockInfo) (*blockCursor, error) {
	s.ctr.ColumnsDecoded++
	var c *blockCursor
	if n := len(s.free); n > 0 {
		c, s.free = s.free[n-1], s.free[:n-1]
		*c = blockCursor{owned: c.owned}
	} else {
		c = new(blockCursor)
	}
	c.s, c.bi, c.verify = s, bi, s.verify
	if s.mem != nil {
		c.win = s.mem[bi.off : bi.off+bi.length]
		if c.verify && snapshotChecksum(c.win) != bi.sum {
			return nil, s.fail("column %d checksum mismatch (block %d)", bi.id, bi.ordinal)
		}
		return c, nil
	}
	c.next, c.left = bi.off, bi.length
	c.sum = newSumState(bi.length)
	if bi.length == 0 && c.verify && c.sum.final() != bi.sum {
		return nil, s.fail("column %d checksum mismatch (block %d)", bi.id, bi.ordinal)
	}
	return c, nil
}

func (c *blockCursor) avail() int       { return len(c.win) - c.wpos }
func (c *blockCursor) remaining() int64 { return int64(c.avail()) + c.left }

func (c *blockCursor) colErr(format string, args ...any) error {
	return c.s.fail("column %d: "+format, append([]any{any(c.bi.id)}, args...)...)
}

// fill makes at least need undecoded bytes available in the window, or
// everything the block still has if fewer remain. The window holds up to
// scanReadChunk bytes, and no more than the block has left, so a small
// block costs a small buffer; need may exceed scanReadChunk (a long
// dictionary entry), and the buffer grows to fit.
func (c *blockCursor) fill(need int) error {
	if c.left == 0 || c.avail() >= need {
		return nil
	}
	keep := c.avail()
	want := int(min(scanReadChunk, int64(keep)+c.left))
	if want < need {
		want = need
	}
	buf := c.owned
	if cap(buf) < want {
		buf = make([]byte, want)
	} else {
		buf = buf[:cap(buf)]
	}
	copy(buf, c.win[c.wpos:])
	fetch := int64(len(buf) - keep)
	if fetch > c.left {
		fetch = c.left
	}
	if _, err := readAtLeast(c.s.src, buf[keep:keep+int(fetch)], c.next, int(fetch)); err != nil {
		return c.s.fail("column %d (block %d): %v", c.bi.id, c.bi.ordinal, err)
	}
	c.sum.update(buf[keep : keep+int(fetch)])
	c.next += fetch
	c.left -= fetch
	c.owned = buf
	c.win = buf[:keep+int(fetch)]
	c.wpos = 0
	if c.left == 0 && c.verify && c.sum.final() != c.bi.sum {
		return c.s.fail("column %d checksum mismatch (block %d)", c.bi.id, c.bi.ordinal)
	}
	return nil
}

// take consumes exactly n bytes from the window.
func (c *blockCursor) take(n int) ([]byte, error) {
	if err := c.fill(n); err != nil {
		return nil, err
	}
	if c.avail() < n {
		return nil, c.colErr("truncated")
	}
	p := c.win[c.wpos : c.wpos+n]
	c.wpos += n
	return p, nil
}

// tryUvarint decodes one uvarint, refilling as needed. It returns w <= 0
// exactly when binary.Uvarint would over the column's remaining bytes:
// 0 for truncation, negative for overflow.
func (c *blockCursor) tryUvarint() (uint64, int) {
	if c.avail() < binary.MaxVarintLen64 && c.left > 0 {
		if err := c.fill(binary.MaxVarintLen64); err != nil {
			return 0, 0
		}
	}
	u, w := binary.Uvarint(c.win[c.wpos:])
	if w <= 0 {
		return u, w
	}
	c.wpos += w
	return u, w
}

// finish verifies the column was consumed exactly, mirroring the
// materializing decoders' trailing-bytes checks.
func (c *blockCursor) finish() error {
	if c.s.err != nil {
		return c.s.err
	}
	if r := c.remaining(); r != 0 {
		return c.colErr("%d trailing bytes", r)
	}
	return nil
}

// varintStop returns how far into p a varint decode may start and still be
// guaranteed complete without a refill.
func (c *blockCursor) varintStop(p []byte) int {
	if c.left == 0 {
		return len(p)
	}
	return len(p) - (binary.MaxVarintLen64 - 1)
}

// deltaInts streams len(dst) rows of a delta-zigzag-varint int column.
func (c *blockCursor) deltaInts(dst []int) error {
	prev := c.prev
	i := 0
	for i < len(dst) {
		if err := c.fill(binary.MaxVarintLen64); err != nil {
			return err
		}
		if c.avail() == 0 {
			return c.colErr("truncated varints")
		}
		p := c.win[c.wpos:]
		stop := c.varintStop(p)
		pos := 0
		for i < len(dst) && pos < stop {
			// Fast paths: in clustered order most user-id deltas are one-
			// or two-byte varints. Longer and malformed ones go through
			// binary.Uvarint, so an error names the varint's row.
			u, w := uint64(p[pos]), 1
			if u >= 0x80 {
				if pos+1 < len(p) && p[pos+1] < 0x80 {
					u, w = u&0x7f|uint64(p[pos+1])<<7, 2
				} else if u, w = binary.Uvarint(p[pos:]); w <= 0 {
					c.wpos += pos
					return c.colErr("bad varint at row %d", c.row+i)
				}
			}
			pos += w
			prev += int64(u>>1) ^ -int64(u&1)
			dst[i] = int(prev)
			i++
		}
		c.wpos += pos
	}
	c.prev = prev
	c.row += len(dst)
	return nil
}

// initTimes consumes the timestamp precision flag byte.
func (c *blockCursor) initTimes() error {
	p, err := c.take(1)
	if err != nil {
		return err
	}
	if p[0] > 1 {
		return c.colErr("unknown timestamp precision %d", p[0])
	}
	c.tsMode = p[0]
	return nil
}

// times streams len(dst) rows of a timestamp column (precision flag
// already consumed by initTimes).
func (c *blockCursor) times(dst []time.Time) error {
	prev := c.prev
	i := 0
	for i < len(dst) {
		if err := c.fill(binary.MaxVarintLen64); err != nil {
			return err
		}
		if c.avail() == 0 {
			return c.colErr("truncated varints")
		}
		p := c.win[c.wpos:]
		stop := c.varintStop(p)
		pos := 0
		for i < len(dst) && pos < stop {
			u, w := uint64(p[pos]), 1
			if u >= 0x80 {
				u, w = binary.Uvarint(p[pos:])
				if w <= 0 {
					c.wpos += pos
					return c.colErr("bad varint at row %d", c.row+i)
				}
			}
			pos += w
			prev += int64(u>>1) ^ -int64(u&1)
			if c.tsMode == 0 {
				dst[i] = time.Unix(prev, 0).UTC()
			} else {
				dst[i] = time.Unix(prev/1e9, prev%1e9).UTC()
			}
			i++
		}
		c.wpos += pos
	}
	c.prev = prev
	c.row += len(dst)
	return nil
}

// floats streams len(dst) rows of a raw-LE float64 column.
func (c *blockCursor) floats(dst []float64) error {
	i := 0
	for i < len(dst) {
		if err := c.fill(8); err != nil {
			return err
		}
		k := c.avail() / 8
		if k == 0 {
			return c.colErr("truncated")
		}
		if rest := len(dst) - i; k > rest {
			k = rest
		}
		decodeRawFloats(dst[i:i+k], c.win[c.wpos:])
		c.wpos += 8 * k
		i += k
	}
	c.row += len(dst)
	return nil
}

// bools streams len(dst) rows of a one-byte bool column.
func (c *blockCursor) bools(dst []bool) error {
	i := 0
	for i < len(dst) {
		if err := c.fill(1); err != nil {
			return err
		}
		k := c.avail()
		if k == 0 {
			return c.colErr("truncated")
		}
		if rest := len(dst) - i; k > rest {
			k = rest
		}
		p := c.win[c.wpos:]
		for j := 0; j < k; j++ {
			dst[i+j] = p[j] != 0
		}
		c.wpos += k
		i += k
	}
	c.row += len(dst)
	return nil
}

// cursorBytes streams len(dst) rows of a one-byte enum column.
func cursorBytes[T ~int](c *blockCursor, dst []T) error {
	i := 0
	for i < len(dst) {
		if err := c.fill(1); err != nil {
			return err
		}
		k := c.avail()
		if k == 0 {
			return c.colErr("truncated")
		}
		if rest := len(dst) - i; k > rest {
			k = rest
		}
		p := c.win[c.wpos:]
		for j := 0; j < k; j++ {
			dst[i+j] = T(p[j])
		}
		c.wpos += k
		i += k
	}
	c.row += len(dst)
	return nil
}

// cursorDict decodes a string column's first-seen dictionary. Entries are
// copied out of the window, so they stay valid for the scanner's lifetime
// — batches alias them, which is what makes retaining a batch's strings
// safe even though the index buffers are reused.
func cursorDict[T ~string](c *blockCursor) ([]T, error) {
	total := c.remaining()
	nv, w := c.tryUvarint()
	if w <= 0 || nv > uint64(total) {
		return nil, c.colErr("bad dictionary size")
	}
	names := make([]T, nv)
	for i := range names {
		l, w := c.tryUvarint()
		if w <= 0 || l > uint64(c.remaining()) {
			return nil, c.colErr("bad dictionary entry %d", i)
		}
		p, err := c.take(int(l))
		if err != nil {
			return nil, c.colErr("bad dictionary entry %d", i)
		}
		names[i] = T(p)
	}
	return names, nil
}

// dictIndexes streams len(dst) dictionary-index rows, resolving against
// names.
func dictIndexes[T ~string](c *blockCursor, names []T, dst []T) error {
	nv := uint64(len(names))
	i := 0
	for i < len(dst) {
		if err := c.fill(binary.MaxVarintLen64); err != nil {
			return err
		}
		if c.avail() == 0 {
			return c.colErr("truncated indexes")
		}
		p := c.win[c.wpos:]
		stop := c.varintStop(p)
		pos := 0
		for i < len(dst) && pos < stop {
			// Fast path: dictionaries are tiny, so indexes are single bytes.
			idx, w := uint64(p[pos]), 1
			if idx >= 0x80 {
				idx, w = binary.Uvarint(p[pos:])
			}
			if w <= 0 || idx >= nv {
				c.wpos += pos
				return c.colErr("bad dictionary index at row %d", c.row+i)
			}
			pos += w
			dst[i] = names[idx]
			i++
		}
		c.wpos += pos
	}
	c.row += len(dst)
	return nil
}

// growSlice resizes a batch buffer to n rows, reusing capacity unless the
// scanner hands ownership to the caller (fresh mode — the decode path).
// Selected columns come back non-nil even at zero rows, so batch consumers
// and the materializing decoders agree on nil-ness.
func growSlice[T any](s []T, n int, fresh bool) []T {
	if fresh || s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// The exec* builders validate one column against the section row count
// (before any allocation, like the materializing decoders), open its
// cursor, and register the closure that decodes its share of each batch.

func execInts(s *BlockScanner, bi blockInfo, rows int, slot *[]int) error {
	c, err := s.newCursor(bi)
	if err != nil {
		return err
	}
	if int64(rows) > bi.length { // every varint is at least one byte
		return c.colErr("%d bytes cannot hold %d varints", bi.length, rows)
	}
	s.exec = append(s.exec, colExec{cur: c, run: func(n int) error {
		*slot = growSlice(*slot, n, s.fresh)
		return c.deltaInts(*slot)
	}})
	return nil
}

func execTimes(s *BlockScanner, bi blockInfo, rows int, slot *[]time.Time) error {
	c, err := s.newCursor(bi)
	if err != nil {
		return err
	}
	if bi.length < 1 || int64(rows) > bi.length-1 {
		return c.colErr("%d bytes cannot hold %d varints", bi.length, rows)
	}
	if err := c.initTimes(); err != nil {
		return err
	}
	s.exec = append(s.exec, colExec{cur: c, run: func(n int) error {
		*slot = growSlice(*slot, n, s.fresh)
		return c.times(*slot)
	}})
	return nil
}

func execFloats(s *BlockScanner, bi blockInfo, rows int, slot *[]float64) error {
	c, err := s.newCursor(bi)
	if err != nil {
		return err
	}
	if bi.length != 8*int64(rows) {
		return c.colErr("%d bytes, want %d", bi.length, 8*rows)
	}
	s.exec = append(s.exec, colExec{cur: c, run: func(n int) error {
		*slot = growSlice(*slot, n, s.fresh)
		return c.floats(*slot)
	}})
	return nil
}

func execBools(s *BlockScanner, bi blockInfo, rows int, slot *[]bool) error {
	c, err := s.newCursor(bi)
	if err != nil {
		return err
	}
	if bi.length != int64(rows) {
		return c.colErr("%d bytes, want %d", bi.length, rows)
	}
	s.exec = append(s.exec, colExec{cur: c, run: func(n int) error {
		*slot = growSlice(*slot, n, s.fresh)
		return c.bools(*slot)
	}})
	return nil
}

func execBytes[T ~int](s *BlockScanner, bi blockInfo, rows int, slot *[]T) error {
	c, err := s.newCursor(bi)
	if err != nil {
		return err
	}
	if bi.length != int64(rows) {
		return c.colErr("%d bytes, want %d", bi.length, rows)
	}
	s.exec = append(s.exec, colExec{cur: c, run: func(n int) error {
		*slot = growSlice(*slot, n, s.fresh)
		return cursorBytes(c, *slot)
	}})
	return nil
}

func execStrings[T ~string](s *BlockScanner, bi blockInfo, rows int, slot *[]T) error {
	c, err := s.newCursor(bi)
	if err != nil {
		return err
	}
	names, err := cursorDict[T](c)
	if err != nil {
		return err
	}
	if int64(rows) > c.remaining() {
		return c.colErr("%d bytes cannot hold %d indexes", c.remaining(), rows)
	}
	s.exec = append(s.exec, colExec{cur: c, run: func(n int) error {
		*slot = growSlice(*slot, n, s.fresh)
		return dictIndexes(c, names, *slot)
	}})
	return nil
}
