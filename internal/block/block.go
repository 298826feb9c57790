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

	"avr/internal/compress"
)

// ErrTooLarge is returned when a compression result exceeds the block
// format's 8-line budget (such blocks must be stored uncompressed).
var ErrTooLarge = errors.New("block: compressed data exceeds 8 cachelines")

// ValuesToBytes serialises 256 raw 32-bit values into the 1 KiB
// uncompressed block image (Fig. 2b), little-endian.
func ValuesToBytes(vals *[compress.BlockValues]uint32, dst []byte) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], v)
	}
}
