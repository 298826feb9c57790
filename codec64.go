package avr

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"avr/internal/block"
	"avr/internal/compress"
)

// Encode64 compresses float64 data with the 64-bit extension of the AVR
// scheme (128 doubles per block, 8-value summaries, 1D reconstruction).
// The stream ("AVR8") is specified in DESIGN.md §5.6.
func (c *Codec) Encode64(vals []float64) ([]byte, error) {
	return c.Encode64To(make([]byte, 0, 8+len(vals)*2), vals)
}

// Encode64To appends the encoded stream for vals to dst and returns the
// extended slice; with a retained buffer the encode path is
// allocation-free. The output is byte-identical to Encode64's. Like
// EncodeTo it reads every full block in place and stages only a padded
// trailing partial block; vals is only read.
func (c *Codec) Encode64To(dst []byte, vals []float64) ([]byte, error) {
	dst = block.Layout64.AppendHeader(dst, len(vals))
	bits := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals))
	for off := 0; off < len(bits); off += compress.BlockValues64 {
		blk := &c.blk64
		if len(bits)-off >= compress.BlockValues64 {
			blk = (*[compress.BlockValues64]uint64)(bits[off:])
		} else {
			n := copy(c.blk64[:], bits[off:])
			last := c.blk64[n-1]
			for i := n; i < compress.BlockValues64; i++ {
				c.blk64[i] = last
			}
		}
		if res := c.comp.CompressFast64(blk); res.OK {
			dst = block.AppendCompressed64(dst, &res)
		} else {
			dst = block.AppendRaw64(dst, blk)
		}
	}
	return dst, nil
}

// Decode64 reconstructs the approximate doubles from an Encode64 stream.
func (c *Codec) Decode64(data []byte) ([]float64, error) {
	return c.Decode64To(nil, data)
}

// Decode64To appends the decoded doubles to dst and returns the extended
// slice; with a retained buffer the decode path is allocation-free. Like
// DecodeTo it reconstructs every record straight into dst. On error the
// returned slice is nil and dst's backing array holds unspecified
// partial output.
func (c *Codec) Decode64To(dst []float64, data []byte) ([]float64, error) {
	cur, err := block.Open(&block.Layout64, data, -1)
	if err != nil {
		return nil, err
	}
	p := len(dst)
	dst = slices.Grow(dst, cur.Count())[:p+cur.Count()]
	bits := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst))
	var sum [compress.SummaryValues64]int64
	var rec block.Record
	for cur.More() {
		if err := cur.Next(&rec); err != nil {
			return nil, err
		}
		out := bits[p : p+rec.Values]
		p += rec.Values
		if rec.Raw != nil {
			for i := range out {
				out[i] = binary.LittleEndian.Uint64(rec.Raw[8*i:])
			}
			continue
		}
		block.ReadSummary64(&sum, rec.Summary)
		c.comp.DecompressInto64(out, &sum, rec.Bitmap, rec.Outliers, rec.Bias)
	}
	return dst, nil
}

// Ratio64 reports the compression ratio of an Encode64 stream. A
// non-positive value count or an empty stream yields 0, never ±Inf or a
// negative ratio.
func Ratio64(valueCount int, encoded []byte) float64 {
	if valueCount <= 0 || len(encoded) == 0 {
		return 0
	}
	return float64(8*valueCount) / float64(len(encoded))
}
