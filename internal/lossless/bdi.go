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

import (
	"encoding/binary"
	"slices"
)

// LineBytes is the input granularity.
const LineBytes = 64

// Form tags: the first byte of every line encoding. Tags 2-7 are the
// base+delta forms in forms.
const (
	idRaw    = 0
	idZeros  = 1
	idRepeat = 8
)

// forms[tag] is the base+delta form a tag names: the width of the base
// and of each segment, and the width of each segment's delta from the
// base, in bytes. The payload is the base followed by one delta per
// segment, 16 B for base8-Δ1 up to 40 B for base8-Δ4; no two forms have
// the same size.
var forms = [idRepeat]struct{ base, delta int }{
	2: {8, 1}, // base8-Δ1: 8 + 8×1 = 16 B
	3: {8, 2}, // base8-Δ2: 8 + 8×2 = 24 B
	4: {4, 1}, // base4-Δ1: 4 + 16×1 = 20 B
	5: {8, 4}, // base8-Δ4: 8 + 8×4 = 40 B
	6: {4, 2}, // base4-Δ2: 4 + 16×2 = 36 B
	7: {2, 1}, // base2-Δ1: 2 + 32×1 = 34 B
}

// EncodedLen returns the length of a whole line encoding whose first
// byte is tag, the tag included, or 0 when tag names no form.
func EncodedLen(tag byte) int {
	switch tag {
	case idRaw:
		return 1 + LineBytes
	case idZeros:
		return 2
	case idRepeat:
		return 1 + 8
	}
	if int(tag) >= len(forms) {
		return 0
	}
	f := forms[tag]
	return 1 + f.base + LineBytes/f.base*f.delta
}

// CompressedSize returns the number of payload bytes BDI needs for the
// line (excluding the 1-byte form tag), choosing the smallest applicable
// form. 64 means incompressible.
func CompressedSize(line []byte) int {
	return EncodedLen(classify(line)) - 1
}

// mag folds a signed delta to d for d >= 0 and -d-1 for d < 0, so that d
// fits a k-bit signed delta exactly when mag(d) < 1<<(k-1). An OR of
// mags stays below 1<<(k-1) exactly when every one of them does.
func mag(d int64) uint64 { return uint64(d ^ d>>63) }

// mag32 and mag16 are mag of a delta between two 32- or 16-bit
// segments, wrapped to the segment width as the decoder wraps it.
func mag32(d uint32) uint64 { return mag(int64(int32(d))) }
func mag16(d uint16) uint64 { return mag(int64(int16(d))) }

// classify returns the tag of the smallest form that encodes line.
//
// Most incompressible lines are decided by their first two words: when
// word 1's delta fails base8-Δ4, one of the 32-bit segments 1-3 fails
// base4-Δ2 and one of the 16-bit segments 1-3 fails base2-Δ1, each base
// width's widest delta fails on some segment, so every narrower delta of
// that width fails too; word 1 differs from word 0, so the line is
// neither zeros nor a repeat. It is raw. Otherwise one pass folds every
// segment's delta into one accumulator per base width, and the smallest
// form whose delta holds its accumulator wins.
func classify(line []byte) byte {
	line = line[:LineBytes]
	w0 := binary.LittleEndian.Uint64(line)
	w1 := binary.LittleEndian.Uint64(line[8:])
	b4, b2 := uint32(w0), uint16(w0)
	if mag(int64(w1-w0)) >= 1<<31 &&
		mag32(uint32(w0>>32)-b4)|mag32(uint32(w1)-b4)|mag32(uint32(w1>>32)-b4) >= 1<<15 &&
		mag16(uint16(w0>>16)-b2)|mag16(uint16(w0>>32)-b2)|mag16(uint16(w0>>48)-b2) >= 1<<7 {
		return idRaw
	}
	var or, diff, a8, a4, a2 uint64
	for off := 0; off < LineBytes; off += 8 {
		w := binary.LittleEndian.Uint64(line[off:])
		or |= w
		diff |= w ^ w0
		a8 |= mag(int64(w - w0))
		a4 |= mag32(uint32(w)-b4) | mag32(uint32(w>>32)-b4)
		a2 |= mag16(uint16(w)-b2) | mag16(uint16(w>>16)-b2) |
			mag16(uint16(w>>32)-b2) | mag16(uint16(w>>48)-b2)
	}
	// Smallest first: zeros 1 B, repeat 8, then 16, 20, 24, 34, 36, 40.
	switch {
	case or == 0:
		return idZeros
	case diff == 0:
		return idRepeat
	case a8 < 1<<7:
		return 2
	case a4 < 1<<7:
		return 4
	case a8 < 1<<15:
		return 3
	case a2 < 1<<7:
		return 7
	case a4 < 1<<15:
		return 6
	case a8 < 1<<31:
		return 5
	}
	return idRaw
}

// AppendEncode appends line's encoding — the form tag, then the payload
// — to dst and returns the extended slice, allocating only for dst's
// growth. It is the building block of the store's zero-allocation
// lossless-fallback path.
func AppendEncode(dst []byte, line []byte) []byte {
	line = line[:LineBytes]
	tag := classify(line)
	switch tag {
	case idZeros:
		return append(dst, idZeros, 0)
	case idRepeat:
		return append(append(dst, idRepeat), line[:8]...)
	case idRaw:
		return append(append(dst, idRaw), line...)
	}
	// The encoding is written in place past len(dst): the tag, the base
	// (the line's first f.base bytes), then each segment's delta from the
	// base, cut to its low f.delta bytes.
	n := EncodedLen(tag)
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	f := forms[tag]
	out[0] = tag
	at := 1 + copy(out[1:1+f.base], line)
	switch f.base {
	case 8:
		w0 := binary.LittleEndian.Uint64(line)
		for off := 0; off < LineBytes; off += 8 {
			putDelta(out[at:], binary.LittleEndian.Uint64(line[off:])-w0, f.delta)
			at += f.delta
		}
	case 4:
		b := binary.LittleEndian.Uint32(line)
		for off := 0; off < LineBytes; off += 4 {
			putDelta(out[at:], uint64(binary.LittleEndian.Uint32(line[off:])-b), f.delta)
			at += f.delta
		}
	default: // base2-Δ1: the low byte of each 16-bit delta
		b := line[0]
		for off := 0; off < LineBytes; off += 2 {
			out[at] = line[off] - b
			at++
		}
	}
	return dst[:len(dst)+n]
}

// putDelta stores d's low size bytes little-endian at the head of b.
func putDelta(b []byte, d uint64, size int) {
	switch size {
	case 1:
		b[0] = byte(d)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(d))
	default:
		binary.LittleEndian.PutUint32(b, uint32(d))
	}
}

// DecodeInto reconstructs one line encoding into line (which must hold
// at least LineBytes; extra capacity is ignored) without allocating, and
// returns line[:LineBytes]. Previous contents are overwritten. data must
// start with a tag EncodedLen knows and hold at least EncodedLen(tag)
// bytes; the caller checks (the store validates every line first).
func DecodeInto(line []byte, data []byte) []byte {
	line = line[:LineBytes]
	tag := data[0]
	payload := data[1:EncodedLen(tag)]
	switch tag {
	case idZeros:
		clear(line)
		return line
	case idRepeat:
		for off := 0; off < LineBytes; off += 8 {
			copy(line[off:], payload)
		}
		return line
	case idRaw:
		copy(line, payload)
		return line
	}
	f := forms[tag]
	// Only the low f.base bytes of base+d are stored, so reading the
	// narrower bases as a whole word (deltas in the high bytes) is exact.
	base := binary.LittleEndian.Uint64(payload[:8:8])
	deltas := payload[f.base:]
	for i, off := 0, 0; off < LineBytes; i, off = i+f.delta, off+f.base {
		var d uint64
		switch f.delta {
		case 1:
			d = uint64(int8(deltas[i]))
		case 2:
			d = uint64(int16(binary.LittleEndian.Uint16(deltas[i:])))
		default:
			d = uint64(int32(binary.LittleEndian.Uint32(deltas[i:])))
		}
		v := base + d
		switch f.base {
		case 8:
			binary.LittleEndian.PutUint64(line[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(line[off:], uint32(v))
		default:
			binary.LittleEndian.PutUint16(line[off:], uint16(v))
		}
	}
	return line
}
