// Package lefloat moves float32 slices to and from their little-endian
// encoding — the layout of every float section the wire codecs carry (the
// embedding queue blob, the engine's iteration frame). On a little-endian
// host that encoding is the in-memory layout, so a slice moves as one block
// copy and an aligned blob can be read in place; a big-endian host keeps
// the per-word loop. Either way the bytes, and the floats, are the same.
package lefloat

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLE reports whether float32s sit in memory in their wire order.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf is v's memory as bytes.
func bytesOf(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// Put writes the little-endian encoding of v into dst, which must hold
// 4·len(v) bytes.
func Put(dst []byte, v []float32) {
	dst = dst[:4*len(v)]
	if hostLE {
		copy(dst, bytesOf(v))
		return
	}
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

// Decode fills dst from the little-endian encoding in src, which must hold
// 4·len(dst) bytes.
func Decode(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	if hostLE {
		copy(bytesOf(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// View returns the floats src encodes as a slice over src's own memory, or
// nil when that is not possible — a big-endian host, a src not 4-byte
// aligned, or a length not a multiple of 4 — and the caller must Decode a
// copy instead. The view aliases src: it reads whatever src holds when it
// is read.
func View(src []byte) []float32 {
	if !hostLE || len(src) == 0 || len(src)%4 != 0 || uintptr(unsafe.Pointer(unsafe.SliceData(src)))%4 != 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(src))), len(src)/4)
}
