package dataset

// Raw float64 column payloads are IEEE-754 bit patterns in little-endian
// byte order (DESIGN.md §10). On a little-endian host that is already the
// in-memory layout of a []float64, so a decode is one memory copy; other
// hosts take the portable per-element loop. The two produce identical
// bits, NaN payloads included.

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// littleEndianHost reports whether this host stores a float64 in the
// payload's byte order.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeRawFloats fills dst from the first 8*len(dst) bytes of p. It is
// the package's one use of unsafe: on a little-endian host it copies p
// into a byte view of dst's memory, which is the payload encoding there.
func decodeRawFloats(dst []float64, p []byte) {
	if !littleEndianHost || len(dst) == 0 {
		decodeRawFloatsPortable(dst, p)
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst)), p[:8*len(dst)])
}

// decodeRawFloatsPortable is decodeRawFloats on any host: one
// little-endian load per element.
func decodeRawFloatsPortable(dst []float64, p []byte) {
	for j := range dst {
		dst[j] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*j:]))
	}
}
