package dataset

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Differential tests of the streaming decode kernels (cursor.go): a float
// or delta-int block decoded through a file window that ends at any byte
// offset, in any batch size, must equal the values it was encoded from,
// which is what the in-memory whole-block decode returns too.

// kernelDeltas returns a delta-int column whose deltas cycle through
// zigzag varints of 1, 2, 3 and 10 bytes, each with both signs.
func kernelDeltas() []int {
	deltas := []int64{
		1, -1, 63, -64, // one byte
		64, -65, 8191, -8192, // two bytes
		8192, -8193, 1<<20 - 1, -1 << 20, // three bytes
		1 << 62, -1<<62 - 1, math.MaxInt64, math.MinInt64, // ten bytes
	}
	rng := rand.New(rand.NewSource(29))
	v := make([]int, 0, 96)
	prev := int64(0)
	for len(v) < cap(v) {
		prev += deltas[rng.Intn(len(deltas))]
		v = append(v, int(prev))
	}
	return v
}

// kernelFloats returns floats of every bit class: zeros of both signs,
// infinities, NaNs with payloads, subnormals, and random bit patterns.
func kernelFloats() []float64 {
	v := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000123), math.Float64frombits(0xfff8dead0000beef),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, 1.5, -3.25,
	}
	rng := rand.New(rand.NewSource(29))
	for len(v) < 48 {
		v = append(v, math.Float64frombits(rng.Uint64()))
	}
	return v
}

// kernelSources returns the payload as an in-memory source and as a file
// source, each with the payload at off; the file is closed at cleanup.
func kernelSources(t *testing.T, payload []byte) (off int64, srcs map[string]ScanSource) {
	t.Helper()
	const pad = 5
	img := append(make([]byte, pad), payload...)
	path := filepath.Join(t.TempDir(), "block")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	fsrc, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fsrc.Close() })
	return pad, map[string]ScanSource{"bytes": BytesSource(img), "file": fsrc}
}

// kernelCursor opens a verifying cursor over the payload at off. Over a
// file source with split > 0, its first window holds exactly the
// payload's first split bytes, as if fill had fetched a split-byte chunk;
// later fills fetch the rest in the usual chunks.
func kernelCursor(t *testing.T, src ScanSource, off int64, payload []byte, split int) *blockCursor {
	t.Helper()
	s := &BlockScanner{src: src, verify: true}
	if b, ok := src.(byteSource); ok {
		s.mem = b
	}
	c, err := s.newCursor(blockInfo{id: 2, off: off, length: int64(len(payload)), sum: snapshotChecksum(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if s.mem == nil && split > 0 {
		w := make([]byte, split)
		if _, err := readAtLeast(src, w, off, len(w)); err != nil {
			t.Fatal(err)
		}
		c.sum.update(w)
		c.owned, c.win, c.wpos = w, w, 0
		c.next, c.left = off+int64(split), c.left-int64(split)
	}
	return c
}

// kernelSplits lists the first-window sizes to try: none (the cursor
// fills on demand) and every byte offset inside the payload.
func kernelSplits(src ScanSource, n int) []int {
	splits := []int{0}
	if _, mem := src.(byteSource); !mem {
		for k := 1; k < n; k++ {
			splits = append(splits, k)
		}
	}
	return splits
}

// decodeBatches runs decode over dst in batches of at most batch rows.
func decodeBatches[T any](dst []T, batch int, decode func([]T) error) error {
	for lo := 0; lo < len(dst); lo += batch {
		if err := decode(dst[lo:min(lo+batch, len(dst))]); err != nil {
			return err
		}
	}
	return nil
}

func TestCursorDeltaIntsDifferential(t *testing.T) {
	want := kernelDeltas()
	payload := appendDeltaInts(nil, want)
	for _, size := range []int{1, 2, 3, 10} {
		found := false
		for i := range want {
			prev := 0
			if i > 0 {
				prev = want[i-1]
			}
			found = found || len(binary.AppendVarint(nil, int64(want[i]-prev))) == size
		}
		if !found {
			t.Fatalf("fixture has no %d-byte delta", size)
		}
	}
	off, srcs := kernelSources(t, payload)
	for name, src := range srcs {
		for _, split := range kernelSplits(src, len(payload)) {
			for _, batch := range []int{1, 5, len(want)} {
				c := kernelCursor(t, src, off, payload, split)
				got := make([]int, len(want))
				if err := decodeBatches(got, batch, c.deltaInts); err != nil {
					t.Fatalf("%s split %d batch %d: %v", name, split, batch, err)
				}
				if err := c.finish(); err != nil {
					t.Fatalf("%s split %d batch %d: %v", name, split, batch, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s split %d batch %d: row %d = %d, want %d", name, split, batch, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCursorDeltaIntsDanglingContinuation: a block whose last varint is a
// lone continuation byte, or a continuation byte after one, fails with
// the row of that varint, wherever the window ends, and never panics.
func TestCursorDeltaIntsDanglingContinuation(t *testing.T) {
	good := kernelDeltas()
	for _, tail := range [][]byte{{0x80}, {0xff, 0x80}, {0x81, 0x82, 0x80}} {
		payload := append(appendDeltaInts(nil, good), tail...)
		wantErr := "bad varint at row " + strconv.Itoa(len(good))
		off, srcs := kernelSources(t, payload)
		for name, src := range srcs {
			for _, split := range kernelSplits(src, len(payload)) {
				for _, batch := range []int{1, 7, len(good) + 1} {
					c := kernelCursor(t, src, off, payload, split)
					err := decodeBatches(make([]int, len(good)+1), batch, c.deltaInts)
					if err == nil || !strings.Contains(err.Error(), wantErr) {
						t.Fatalf("tail % x, %s split %d batch %d: error %v, want %q", tail, name, split, batch, err, wantErr)
					}
				}
			}
		}
	}
}

func TestCursorFloatsDifferential(t *testing.T) {
	want := kernelFloats()
	payload := appendFloats(nil, want)
	off, srcs := kernelSources(t, payload)
	for name, src := range srcs {
		for _, split := range kernelSplits(src, len(payload)) {
			for _, batch := range []int{1, 3, len(want)} {
				c := kernelCursor(t, src, off, payload, split)
				got := make([]float64, len(want))
				if err := decodeBatches(got, batch, c.floats); err != nil {
					t.Fatalf("%s split %d batch %d: %v", name, split, batch, err)
				}
				if err := c.finish(); err != nil {
					t.Fatalf("%s split %d batch %d: %v", name, split, batch, err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s split %d batch %d: row %d = %#x, want %#x", name, split, batch, i,
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestRawFloatsCopyMatchesPortable runs the portable per-element loop
// against decodeRawFloats (the memory copy on a little-endian host) over
// every length and every alignment of the source bytes.
func TestRawFloatsCopyMatchesPortable(t *testing.T) {
	vals := kernelFloats()
	payload := appendFloats(nil, vals)
	for shift := 0; shift < 8; shift++ {
		p := append(make([]byte, shift), payload...)[shift:]
		for n := 0; n <= len(vals); n++ {
			got := make([]float64, n)
			ref := make([]float64, n)
			decodeRawFloats(got, p)
			decodeRawFloatsPortable(ref, p)
			for i := 0; i < n; i++ {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) || math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
					t.Fatalf("shift %d n %d: row %d = %#x, portable %#x, want %#x", shift, n, i,
						math.Float64bits(got[i]), math.Float64bits(ref[i]), math.Float64bits(vals[i]))
				}
			}
		}
	}
}

// kernelIngestImage encodes an ingest snapshot whose user ids are
// kernelDeltas, so the user-id block holds varints of every width.
func kernelIngestImage(t testing.TB) []byte {
	t.Helper()
	users := kernelDeltas()
	rows := synthIngestRows(len(users), 3)
	for i, u := range users {
		rows[i].UserID = u
	}
	img, err := encodeCitySnapshot(&CitySnapshot{Ingest: ColumnizeIngest(rows)}, DataVersion)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// danglingUserIDImage returns a copy of img whose user-id block ends in a
// lone continuation byte (0x80), with the block's checksum and the
// trailer recomputed so that the bad varint, not a checksum, ends a scan.
func danglingUserIDImage(t testing.TB, img []byte) []byte {
	t.Helper()
	probe, err := newBlockScanner(byteSource(img), SelectAll(), 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range probe.sections {
		if ss.kind != SectionIngest {
			continue
		}
		for _, bi := range ss.cols {
			if bi.id != IngestColUserID {
				continue
			}
			bad := append([]byte(nil), img...)
			end := bi.off + bi.length
			bad[end-1] = 0x80
			binary.LittleEndian.PutUint64(bad[bi.off-8:], snapshotChecksum(bad[bi.off:end]))
			binary.LittleEndian.PutUint64(bad[len(bad)-8:], snapshotChecksum(bad[:len(bad)-8]))
			return bad
		}
	}
	t.Fatal("image has no ingest user-id block")
	return nil
}

// TestScanDanglingVarintImage: a whole ingest image whose user-id block
// ends in a dangling continuation byte fails the materializing decode and
// the streamed scan, from memory and from a file, at the last row.
func TestScanDanglingVarintImage(t *testing.T) {
	img := kernelIngestImage(t)
	if _, err := DecodeCitySnapshot(img); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	bad := danglingUserIDImage(t, img)
	wantErr := "bad varint at row " + strconv.Itoa(len(kernelDeltas())-1)
	if _, err := DecodeCitySnapshot(bad); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("decode: error %v, want %q", err, wantErr)
	}
	path := filepath.Join(t.TempDir(), "bad.sxc")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	fsrc, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fsrc.Close()
	for name, src := range map[string]ScanSource{"bytes": BytesSource(bad), "file": fsrc} {
		for _, batch := range []int{1, 7, 0} {
			_, _, err := collectScan(src, SnapshotSelection{Ingest: Cols(IngestColUserID)}, batch)
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("%s batch %d: error %v, want %q", name, batch, err, wantErr)
			}
		}
	}
}
