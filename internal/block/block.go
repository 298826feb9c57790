// Package block implements the AVR memory-block wire format (ICPP'19
// §3.1, Fig. 2): the byte layout of a compressed block as it is stored in
// memory and transferred over the memory bus.
//
// A compressed block occupies 1–8 cachelines of its 16-line (1 KiB)
// memory slot:
//
//	line 0              block summary (16 × 32-bit sub-block averages)
//	line 1, bytes 0–31  outlier bitmap (one bit per value), if outliers exist
//	line 1, bytes 32–63 first 8 outliers
//	lines 2..           further outliers, packed
//
// The remaining lines of the slot are free space used for lazily evicted
// uncompressed cachelines. The block's metadata (size, method, bias,
// datatype, lazy count) lives in the CMT, not in the block itself.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"avr/internal/compress"
)

// ErrTooLarge is returned when a compression result exceeds the block
// format's 8-line budget (such blocks must be stored uncompressed).
var ErrTooLarge = errors.New("block: compressed data exceeds 8 cachelines")

// ErrBadSize is returned by Decode when the line count is inconsistent
// with the encoded bitmap.
var ErrBadSize = errors.New("block: line count inconsistent with bitmap")

// Encode serialises a successful compression result into its wire format:
// a buffer of SizeLines × 64 bytes laid out per Fig. 2a. The caller keeps
// method, bias and datatype in the CMT.
func Encode(r *compress.Result) ([]byte, error) {
	if r.SizeLines > compress.MaxCompressedLines {
		return nil, ErrTooLarge
	}
	buf := make([]byte, r.SizeLines*compress.LineBytes)
	for i, v := range r.Summary {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	if len(r.Outliers) == 0 {
		return buf, nil
	}
	copy(buf[compress.LineBytes:], r.Bitmap[:])
	off := compress.LineBytes + compress.BitmapBytes
	for _, o := range r.Outliers {
		binary.LittleEndian.PutUint32(buf[off:], o)
		off += 4
	}
	return buf, nil
}

// Decode parses a compressed block buffer (length must be a whole number
// of cachelines, as recorded in the CMT size field) back into summary,
// bitmap and outliers. A single-line buffer has no outliers.
func Decode(buf []byte) (summary [compress.SummaryValues]int32, bitmap *[compress.BitmapBytes]byte, outliers []uint32, err error) {
	if len(buf)%compress.LineBytes != 0 || len(buf) == 0 || len(buf) > compress.MaxCompressedLines*compress.LineBytes {
		return summary, nil, nil, fmt.Errorf("block: bad buffer length %d", len(buf))
	}
	for i := range summary {
		summary[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	if len(buf) == compress.LineBytes {
		return summary, nil, nil, nil
	}
	var bm [compress.BitmapBytes]byte
	copy(bm[:], buf[compress.LineBytes:])
	n := 0
	for _, b := range bm {
		n += bits.OnesCount8(b)
	}
	if compress.CompressedLines(n) != len(buf)/compress.LineBytes {
		return summary, nil, nil, ErrBadSize
	}
	off := compress.LineBytes + compress.BitmapBytes
	outliers = make([]uint32, n)
	for i := range outliers {
		outliers[i] = binary.LittleEndian.Uint32(buf[off:])
		off += 4
	}
	return summary, &bm, outliers, nil
}

// ValuesToBytes serialises 256 raw 32-bit values into the 1 KiB
// uncompressed block image (Fig. 2b), little-endian.
func ValuesToBytes(vals *[compress.BlockValues]uint32, dst []byte) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], v)
	}
}

// BytesToValues deserialises a 1 KiB uncompressed block image into 256
// raw 32-bit values.
func BytesToValues(src []byte, vals *[compress.BlockValues]uint32) {
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(src[4*i:])
	}
}
