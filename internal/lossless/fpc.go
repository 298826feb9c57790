package lossless

import "encoding/binary"

// Frequent Pattern Compression (Alameldeen & Wood, 2004): each 32-bit
// word is encoded with a 3-bit prefix selecting one of several frequent
// patterns. The second lossless algorithm offered by the link layer,
// with different strengths from BDI: FPC excels at small sign-extended
// integers and zero runs, BDI at clustered large values.
//
// Patterns (per 32-bit word):
//
//	0 zero word (run-length handled by pattern 0 repetition)
//	1 4-bit sign-extended
//	2 8-bit sign-extended
//	3 16-bit sign-extended
//	4 16-bit padded with a zero halfword (value in the high half)
//	5 two identical bytes repeated (halfword repeated twice)
//	6 uncompressed word
//
// Sizes below are data bits only; the 3-bit prefixes are accumulated and
// rounded up to whole bytes at the end, as the hardware packs them into
// a prefix word.

// fpcDataBits returns the data payload size in bits for one word.
func fpcDataBits(w uint32) int {
	switch {
	case w == 0:
		return 0
	case int32(w) >= -8 && int32(w) < 8:
		return 4
	case int32(w) >= -128 && int32(w) < 128:
		return 8
	case int32(w) >= -32768 && int32(w) < 32768:
		return 16
	case w&0xFFFF == 0:
		return 16 // halfword padded with zeros
	case isRepeatedHalf(w):
		return 16
	default:
		return 32
	}
}

func isRepeatedHalf(w uint32) bool {
	h := uint16(w)
	return uint16(w>>16) == h && uint8(h) == uint8(h>>8)
}

// CompressedSizeFPC returns the FPC-compressed size of a 64-byte line in
// bytes (prefixes included, rounded up; never more than the line).
func CompressedSizeFPC(line []byte) int {
	bits := 16 * 3 // 3-bit prefix per word
	for off := 0; off < LineBytes; off += 4 {
		bits += fpcDataBits(binary.LittleEndian.Uint32(line[off:]))
	}
	size := (bits + 7) / 8
	if size > LineBytes {
		return LineBytes
	}
	return size
}

// Algorithm selects a lossless line compressor.
type Algorithm int

// The implemented algorithms.
const (
	BDI Algorithm = iota
	FPC
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == FPC {
		return "FPC"
	}
	return "BDI"
}

// SizeOf dispatches to the selected algorithm's size function.
func SizeOf(a Algorithm, line []byte) int {
	if a == FPC {
		return CompressedSizeFPC(line)
	}
	return CompressedSize(line)
}

// LinkBytes is a line's transfer size on a lossless-compressed memory
// link: its compressed size plus a 1 B form tag, capped at the
// uncompressed LineBytes.
func LinkBytes(a Algorithm, line []byte) int {
	return min(SizeOf(a, line)+1, LineBytes)
}
