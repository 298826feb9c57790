package avr

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"avr/internal/block"
	"avr/internal/compress"
)

// Codec compresses float32 slices with the AVR downsampling scheme as a
// standalone lossy codec: data is cut into 256-value blocks, each block
// is downsampled to a 16-value summary plus outliers when it meets the
// error thresholds, and stored raw otherwise.
//
// The wire format — the "AVR1" stream for float32, "AVR8" for float64 —
// is specified in DESIGN.md §5.6 and implemented by internal/block; this
// file only cuts values into blocks and runs the compressor over them.
//
// The decoded output is the approximate reconstruction — the same values
// an AVR memory system would deliver to the processor.
//
// Encode/Decode allocate their result; the EncodeTo/DecodeTo variants
// append into a caller-supplied buffer instead and perform no
// allocations once that buffer has grown to size, which is how the
// store's put/get paths reach 0 allocs/op. The encoded bytes never alias
// codec state, so they stay valid across subsequent calls.
//
// A Codec is NOT safe for concurrent use: the underlying compressor
// carries scratch buffers that are reused across Encode calls. Use one
// Codec per goroutine, or borrow codecs from a pool the way the avrd
// service does (internal/server.CodecPool) — handing a Codec from one
// goroutine to another through a pool is fine as long as uses do not
// overlap.
type Codec struct {
	comp *compress.Compressor

	// Where EncodeTo / Encode64To stage a padded trailing partial block;
	// full blocks are read in place.
	blk   [compress.BlockValues]uint32
	blk64 [compress.BlockValues64]uint64
}

// NewCodec creates a codec with per-value relative error bound t1 (the
// block-average bound is t1/2, following the paper's T1 = 2·T2).
// Non-positive t1 selects the experiment default (1/32).
func NewCodec(t1 float64) *Codec {
	th := compress.DefaultThresholds()
	if t1 > 0 {
		th = compress.Thresholds{T1: t1, T2: t1 / 2}
	}
	return &Codec{comp: compress.NewCompressor(th)}
}

// Encode compresses vals. The trailing partial block, if any, is padded
// internally with its last value (padding never decodes back).
func (c *Codec) Encode(vals []float32) ([]byte, error) {
	return c.EncodeTo(make([]byte, 0, 8+len(vals)/2), vals)
}

// EncodeTo appends the encoded stream for vals to dst and returns the
// extended slice. Passing a buffer retained across calls (dst[:0])
// makes the encode path allocation-free; pass nil to let it allocate.
// The output is byte-identical to Encode's, and vals is only read.
func (c *Codec) EncodeTo(dst []byte, vals []float32) ([]byte, error) {
	dst = block.Layout32.AppendHeader(dst, len(vals))
	// The values' bit view, as DecodeTo writes its destination: each full
	// block goes to the compressor as a view of the caller's values (the
	// compressor never writes its input); only a trailing partial block
	// is staged in c.blk, padded with its last value.
	bits := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals))
	for off := 0; off < len(bits); off += compress.BlockValues {
		blk := &c.blk
		if len(bits)-off >= compress.BlockValues {
			blk = (*[compress.BlockValues]uint32)(bits[off:])
		} else {
			n := copy(c.blk[:], bits[off:])
			last := c.blk[n-1]
			for i := n; i < compress.BlockValues; i++ {
				c.blk[i] = last
			}
		}
		res := c.comp.CompressFast(blk, compress.Float32)
		if !res.OK {
			dst = block.AppendRaw32(dst, blk)
			continue
		}
		var err error
		if dst, err = block.AppendCompressed32(dst, &res); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Decode reconstructs the approximate values from an encoded stream.
func (c *Codec) Decode(data []byte) ([]float32, error) {
	return c.DecodeTo(nil, data)
}

// DecodeTo appends the decoded values to dst and returns the extended
// slice. With a retained buffer (dst[:0]) the decode path is
// allocation-free. Every record is reconstructed by the vectorised
// kernel straight into dst — no staging block, no per-value copy. On
// error the returned slice is nil and dst's backing array holds
// unspecified partial output.
func (c *Codec) DecodeTo(dst []float32, data []byte) ([]float32, error) {
	cur, err := block.Open(&block.Layout32, data, -1)
	if err != nil {
		return nil, err
	}
	p := len(dst)
	dst = slices.Grow(dst, cur.Count())[:p+cur.Count()]
	// The destination's bit view: float32 and uint32 share size and
	// alignment, so the kernel writes IEEE bit patterns in place.
	bits := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst))
	var sum [compress.SummaryValues]int32
	var rec block.Record
	for cur.More() {
		if err := cur.Next(&rec); err != nil {
			return nil, err
		}
		out := bits[p : p+rec.Values]
		p += rec.Values
		if rec.Raw != nil {
			for i := range out {
				out[i] = binary.LittleEndian.Uint32(rec.Raw[4*i:])
			}
			continue
		}
		block.ReadSummary32(&sum, rec.Summary)
		c.comp.DecompressBits32(out, &sum, rec.Bitmap, rec.Outliers, rec.Method, int8(rec.Bias))
	}
	return dst, nil
}

// Ratio reports the compression ratio achieved by an encoded stream for
// the given original value count. A non-positive value count or an
// empty stream yields 0, never ±Inf or a negative ratio.
func Ratio(valueCount int, encoded []byte) float64 {
	if valueCount <= 0 || len(encoded) == 0 {
		return 0
	}
	return float64(4*valueCount) / float64(len(encoded))
}
