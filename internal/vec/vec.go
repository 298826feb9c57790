// Package vec names the (fp32 slice, fp64 slice) pair the store and the
// serving tier pass around, so that value width is a field to dispatch
// on once — at the codec call and at the little-endian wire conversion —
// instead of a second copy of every function that moves values.
package vec

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"

	"avr"
)

// Vec is a vector of fp32 or fp64 values. Width (32 or 64) says which of
// F32 and F64 is live; every method reads and extends only that side
// and carries the other along untouched, so one Vec can also be a
// two-buffer destination whose Width the producer sets (the store's
// read path: a key's width is known only once it is looked up).
type Vec struct {
	Width int
	F32   []float32
	F64   []float64
}

// Of32 wraps an fp32 slice.
func Of32(v []float32) Vec { return Vec{Width: 32, F32: v} }

// Of64 wraps an fp64 slice.
func Of64(v []float64) Vec { return Vec{Width: 64, F64: v} }

// Len returns the number of live values.
func (v Vec) Len() int {
	if v.Width == 64 {
		return len(v.F64)
	}
	return len(v.F32)
}

// Slice returns the live values [lo, hi) as a Vec of the same width.
func (v Vec) Slice(lo, hi int) Vec {
	if v.Width == 64 {
		return Of64(v.F64[lo:hi])
	}
	return Of32(v.F32[lo:hi])
}

// Reset empties both sides, keeping their storage, and sets the width
// (0 leaves it for a producer to set).
func (v Vec) Reset(width int) Vec {
	return Vec{Width: width, F32: v.F32[:0], F64: v.F64[:0]}
}

// Grow ensures room for n more live values.
func (v Vec) Grow(n int) Vec {
	if v.Width == 64 {
		v.F64 = slices.Grow(v.F64, n)
	} else {
		v.F32 = slices.Grow(v.F32, n)
	}
	return v
}

// littleEndian reports whether the host lays values out in memory the
// way the wire does, so that AppendLE and FromLE are one copy.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytes is the live values' memory image.
func (v Vec) bytes() []byte {
	if v.Width == 64 {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v.F64))), 8*len(v.F64))
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v.F32))), 4*len(v.F32))
}

// AppendLE appends the live values to dst as raw little-endian bytes —
// the HTTP body format and the layout the lossless fallback compresses.
func (v Vec) AppendLE(dst []byte) []byte {
	if littleEndian {
		return append(dst, v.bytes()...)
	}
	return v.appendLEPortable(dst)
}

// LE returns the live values as raw little-endian bytes. On a
// little-endian host that is the vector's own memory, no copy: the bytes
// alias v and are valid only while v's storage is neither reused nor
// written. Elsewhere they are AppendLE(scratch[:0]).
func (v Vec) LE(scratch []byte) []byte {
	if littleEndian {
		return v.bytes()
	}
	return v.AppendLE(scratch[:0])
}

// appendLEPortable is AppendLE value by value: the big-endian hosts'
// path, and what the tests hold the copy to.
func (v Vec) appendLEPortable(dst []byte) []byte {
	if v.Width == 64 {
		for _, x := range v.F64 {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
		return dst
	}
	for _, x := range v.F32 {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// FromLE appends the values held in b as raw little-endian bytes (a
// trailing partial value is ignored).
func (v Vec) FromLE(b []byte) Vec {
	if !littleEndian {
		return v.fromLEPortable(b)
	}
	at := v.Len()
	if v.Width == 64 {
		n := len(b) / 8
		v.F64 = slices.Grow(v.F64, n)[:at+n]
	} else {
		n := len(b) / 4
		v.F32 = slices.Grow(v.F32, n)[:at+n]
	}
	copy(v.Slice(at, v.Len()).bytes(), b)
	return v
}

// fromLEPortable is FromLE value by value, for big-endian hosts.
func (v Vec) fromLEPortable(b []byte) Vec {
	if v.Width == 64 {
		for ; len(b) >= 8; b = b[8:] {
			v.F64 = append(v.F64, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		return v
	}
	for ; len(b) >= 4; b = b[4:] {
		v.F32 = append(v.F32, math.Float32frombits(binary.LittleEndian.Uint32(b)))
	}
	return v
}

// EncodeTo appends the AVR codec stream of the live values to dst
// (Codec.EncodeTo or Codec.Encode64To).
func (v Vec) EncodeTo(c *avr.Codec, dst []byte) ([]byte, error) {
	if v.Width == 64 {
		return c.Encode64To(dst, v.F64)
	}
	return c.EncodeTo(dst, v.F32)
}

// DecodeAppend appends the values of an AVR codec stream of v's width
// (Codec.DecodeTo or Codec.Decode64To). On error v is returned as
// passed.
func (v Vec) DecodeAppend(c *avr.Codec, data []byte) (Vec, error) {
	if v.Width == 64 {
		out, err := c.Decode64To(v.F64, data)
		if err != nil {
			return v, err
		}
		v.F64 = out
		return v, nil
	}
	out, err := c.DecodeTo(v.F32, data)
	if err != nil {
		return v, err
	}
	v.F32 = out
	return v, nil
}
