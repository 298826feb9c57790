// Package lossless implements Base-Delta-Immediate (BDI) cacheline
// compression (Pekhimenko et al., PACT'12), the class of lossless
// technique the paper treats as orthogonal to AVR (§2): "lossless
// compression ... can be used in our design to compress data that are
// not approximated, or even on top of AVR approximately compressed
// data". The simulator uses it as an optional memory-link compressor for
// non-approximated lines.
//
// BDI encodes a 64 B line as a base value plus small deltas when all
// values cluster near the base (or near zero, the "immediate" part).
// Compression and decompression are single-cycle-class hardware
// operations; only the compressed size matters to the simulator, while
// the store's lossless fallback encodes with AppendEncode and
// DecodeInto, which round-trip bit-exactly.
package lossless

import "encoding/binary"

// LineBytes is the input granularity.
const LineBytes = 64

// form identifies a BDI encoding, ordered by compressed size.
type form struct {
	id        byte
	baseBytes int // segment size (8, 4 or 2)
	deltaBits int // bits per delta
}

// The canonical BDI forms (zeros and repeat handled separately).
var forms = []form{
	{id: 2, baseBytes: 8, deltaBits: 8},  // base8-Δ1: 8 + 8×1 = 16 B
	{id: 3, baseBytes: 8, deltaBits: 16}, // base8-Δ2: 8 + 8×2 = 24 B
	{id: 4, baseBytes: 4, deltaBits: 8},  // base4-Δ1: 4 + 16×1 = 20 B
	{id: 5, baseBytes: 8, deltaBits: 32}, // base8-Δ4: 8 + 8×4 = 40 B
	{id: 6, baseBytes: 4, deltaBits: 16}, // base4-Δ2: 4 + 16×2 = 36 B
	{id: 7, baseBytes: 2, deltaBits: 8},  // base2-Δ1: 2 + 32×1 = 34 B
}

const (
	idRaw    = 0
	idZeros  = 1
	idRepeat = 8
)

// CompressedSize returns the number of payload bytes BDI needs for the
// line (excluding the 1-byte form tag), choosing the smallest applicable
// form. 64 means incompressible.
func CompressedSize(line []byte) int {
	_, size := bestForm(line)
	return size
}

// bestForm picks the smallest encoding.
func bestForm(line []byte) (byte, int) {
	if allZero(line) {
		return idZeros, 1
	}
	if repeated8(line) {
		return idRepeat, 8
	}
	best, bestSize := byte(idRaw), LineBytes
	for _, f := range forms {
		size := f.baseBytes + (LineBytes/f.baseBytes)*(f.deltaBits/8)
		if size >= bestSize {
			continue
		}
		if fits(line, f) {
			best, bestSize = f.id, size
		}
	}
	return best, bestSize
}

func allZero(line []byte) bool {
	for _, b := range line {
		if b != 0 {
			return false
		}
	}
	return true
}

func repeated8(line []byte) bool {
	first := binary.LittleEndian.Uint64(line)
	for off := 8; off < LineBytes; off += 8 {
		if binary.LittleEndian.Uint64(line[off:]) != first {
			return false
		}
	}
	return true
}

// segment reads the base-sized unsigned value at offset off.
func segment(line []byte, off, baseBytes int) uint64 {
	switch baseBytes {
	case 8:
		return binary.LittleEndian.Uint64(line[off:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(line[off:]))
	default:
		return uint64(binary.LittleEndian.Uint16(line[off:]))
	}
}

// fits reports whether every segment's delta from the first segment fits
// in the form's signed delta width.
func fits(line []byte, f form) bool {
	base := segment(line, 0, f.baseBytes)
	lim := int64(1) << (f.deltaBits - 1)
	for off := 0; off < LineBytes; off += f.baseBytes {
		d := int64(segment(line, off, f.baseBytes) - base)
		// Sign-extend the subtraction for sub-64-bit segments.
		if f.baseBytes != 8 {
			shift := uint(64 - f.baseBytes*8)
			d = int64(uint64(d)<<shift) >> shift
		}
		if d < -lim || d >= lim {
			return false
		}
	}
	return true
}

// AppendEncode appends Encode's exact bytes for line to dst and returns
// the extended slice, allocating only for dst's growth. It is the
// building block of the store's zero-allocation lossless-fallback path.
func AppendEncode(dst []byte, line []byte) []byte {
	id, _ := bestForm(line)
	out := append(dst, id)
	switch id {
	case idZeros:
		return append(out, 0)
	case idRepeat:
		return append(out, line[:8]...)
	case idRaw:
		return append(out, line...)
	}
	f := formByID(id)
	out = append(out, line[:f.baseBytes]...)
	base := segment(line, 0, f.baseBytes)
	db := f.deltaBits / 8
	for off := 0; off < LineBytes; off += f.baseBytes {
		d := segment(line, off, f.baseBytes) - base
		for b := 0; b < db; b++ {
			out = append(out, byte(d>>(8*b)))
		}
	}
	return out
}

// DecodeInto reconstructs an Encode stream into line (which must hold at
// least LineBytes; extra capacity is ignored) without allocating, and
// returns line[:LineBytes]. Previous contents are overwritten.
func DecodeInto(line []byte, data []byte) []byte {
	line = line[:LineBytes]
	clear(line)
	if len(data) == 0 {
		return line
	}
	id := data[0]
	payload := data[1:]
	switch id {
	case idZeros:
		return line
	case idRepeat:
		for off := 0; off < LineBytes; off += 8 {
			copy(line[off:], payload[:8])
		}
		return line
	case idRaw:
		copy(line, payload)
		return line
	}
	f := formByID(id)
	base := segment(payload, 0, f.baseBytes)
	db := f.deltaBits / 8
	deltas := payload[f.baseBytes:]
	for i, off := 0, 0; off < LineBytes; off += f.baseBytes {
		var d uint64
		for b := 0; b < db; b++ {
			d |= uint64(deltas[i*db+b]) << (8 * b)
		}
		// Sign-extend the delta.
		shift := uint(64 - f.deltaBits)
		sd := uint64(int64(d<<shift) >> shift)
		v := base + sd
		switch f.baseBytes {
		case 8:
			binary.LittleEndian.PutUint64(line[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(line[off:], uint32(v))
		default:
			binary.LittleEndian.PutUint16(line[off:], uint16(v))
		}
		i++
	}
	return line
}

func formByID(id byte) form {
	for _, f := range forms {
		if f.id == id {
			return f
		}
	}
	panic("lossless: unknown form")
}
