package avr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"avr/internal/compress"
)

// Reference codec framing: the original allocating Encode/Decode loops,
// retained verbatim as the oracle for the differential test harness
// (codec_diff_test.go, fuzz_test.go). Block compression itself is the
// one shipped datapath on both sides — Compressor.Compress is an adapter
// over CompressFast, and its block-level oracle lives in
// internal/compress/reference_test.go — so what these pin is the wire
// framing, padding and the per-value decode path: every stream the
// append-style codec produces must be byte-identical to these, and every
// stream it decodes must decode to the same values.

// The oracle's own copy of the format constants and error values: it
// shares no framing or parsing code with internal/block.
var (
	codecMagic   = [4]byte{'A', 'V', 'R', '1'}
	codec64Magic = [4]byte{'A', 'V', 'R', '8'}

	errTruncated    = errors.New("avr: truncated codec stream")
	errBitmapSize   = errors.New("avr: codec bitmap inconsistent with size")
	err64BitmapSize = errors.New("avr: codec64 bitmap inconsistent with size")
)

// referenceEncode is the scalar twin of EncodeTo's fast path.
func (c *Codec) referenceEncode(vals []float32) ([]byte, error) {
	out := make([]byte, 0, len(vals)/2)
	out = append(out, codecMagic[:]...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(vals)))
	out = append(out, n[:]...)

	var blk [compress.BlockValues]uint32
	for off := 0; off < len(vals); off += compress.BlockValues {
		for i := 0; i < compress.BlockValues; i++ {
			j := off + i
			if j >= len(vals) {
				j = len(vals) - 1 // pad with the last value
			}
			blk[i] = math.Float32bits(vals[j])
		}
		res := c.comp.Compress(&blk, compress.Float32)
		if res.OK {
			if res.SizeLines > compress.MaxCompressedLines {
				return nil, errors.New("avr: compressed block exceeds 8 cachelines")
			}
			hdr := byte(0x80) | byte(res.Method)<<6 | byte(res.SizeLines)
			out = append(out, hdr, byte(res.Bias))
			payload := make([]byte, res.SizeLines*compress.LineBytes)
			for i, v := range res.Summary {
				binary.LittleEndian.PutUint32(payload[4*i:], uint32(v))
			}
			if len(res.Outliers) > 0 {
				copy(payload[compress.LineBytes:], res.Bitmap[:])
				p := compress.LineBytes + compress.BitmapBytes
				for _, o := range res.Outliers {
					binary.LittleEndian.PutUint32(payload[p:], o)
					p += 4
				}
			}
			out = append(out, payload...)
		} else {
			out = append(out, 0, 0)
			var raw [compress.BlockBytes]byte
			for i, v := range blk {
				binary.LittleEndian.PutUint32(raw[4*i:], v)
			}
			out = append(out, raw[:]...)
		}
	}
	return out, nil
}

// referenceDecode is the scalar twin of DecodeTo's fast path.
func (c *Codec) referenceDecode(data []byte) ([]float32, error) {
	if len(data) < 8 || [4]byte(data[:4]) != codecMagic {
		return nil, errors.New("avr: bad codec magic")
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	data = data[8:]
	minRecord := 2 + compress.LineBytes
	blocks := (count + compress.BlockValues - 1) / compress.BlockValues
	if len(data) < blocks*minRecord {
		return nil, errTruncated
	}
	out := make([]float32, 0, count)
	for len(out) < count {
		if len(data) < 2 {
			return nil, errTruncated
		}
		hdr, bias := data[0], int8(data[1])
		data = data[2:]
		var vals [compress.BlockValues]uint32
		if hdr&0x80 != 0 {
			size := int(hdr & 0x0F)
			if size < 1 || size > compress.MaxCompressedLines {
				return nil, fmt.Errorf("avr: bad block size %d", size)
			}
			if len(data) < size*compress.LineBytes {
				return nil, errTruncated
			}
			var summary [compress.SummaryValues]int32
			for i := range summary {
				summary[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
			}
			var bm *[compress.BitmapBytes]byte
			var outliers []uint32
			if size > 1 {
				var b [compress.BitmapBytes]byte
				copy(b[:], data[compress.LineBytes:])
				bm = &b
				k := 0
				for _, x := range b {
					for ; x != 0; x &= x - 1 {
						k++
					}
				}
				if compress.CompressedLines(k) != size {
					return nil, errBitmapSize
				}
				p := compress.LineBytes + compress.BitmapBytes
				outliers = make([]uint32, k)
				for i := range outliers {
					outliers[i] = binary.LittleEndian.Uint32(data[p:])
					p += 4
				}
			}
			data = data[size*compress.LineBytes:]
			method := compress.Method(hdr >> 6 & 1)
			vals = compress.Decompress(&summary, bm, outliers, method, bias, compress.Float32)
		} else {
			if len(data) < compress.BlockBytes {
				return nil, errTruncated
			}
			for i := range vals {
				vals[i] = binary.LittleEndian.Uint32(data[4*i:])
			}
			data = data[compress.BlockBytes:]
		}
		for i := 0; i < compress.BlockValues && len(out) < count; i++ {
			out = append(out, math.Float32frombits(vals[i]))
		}
	}
	return out, nil
}

// referenceEncode64 is the scalar twin of Encode64To's fast path.
func (c *Codec) referenceEncode64(vals []float64) ([]byte, error) {
	out := make([]byte, 0, len(vals)*2)
	out = append(out, codec64Magic[:]...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(vals)))
	out = append(out, n[:]...)

	var blk [compress.BlockValues64]uint64
	for off := 0; off < len(vals); off += compress.BlockValues64 {
		for i := 0; i < compress.BlockValues64; i++ {
			j := off + i
			if j >= len(vals) {
				j = len(vals) - 1
			}
			blk[i] = math.Float64bits(vals[j])
		}
		res := c.comp.Compress64(&blk)
		if res.OK {
			hdr := byte(0x80) | byte(res.SizeLines)
			out = append(out, hdr)
			out = binary.LittleEndian.AppendUint16(out, uint16(res.Bias))
			payload := make([]byte, res.SizeLines*compress.LineBytes)
			for i, v := range res.Summary {
				binary.LittleEndian.PutUint64(payload[8*i:], uint64(v))
			}
			if len(res.Outliers) > 0 {
				copy(payload[compress.LineBytes:], res.Bitmap[:])
				p := compress.LineBytes + compress.BitmapBytes64
				for _, o := range res.Outliers {
					binary.LittleEndian.PutUint64(payload[p:], o)
					p += 8
				}
			}
			out = append(out, payload...)
		} else {
			out = append(out, 0, 0, 0)
			var raw [compress.BlockBytes]byte
			for i, v := range blk {
				binary.LittleEndian.PutUint64(raw[8*i:], v)
			}
			out = append(out, raw[:]...)
		}
	}
	return out, nil
}

// referenceDecode64 is the scalar twin of Decode64To's fast path.
func (c *Codec) referenceDecode64(data []byte) ([]float64, error) {
	if len(data) < 8 || [4]byte(data[:4]) != codec64Magic {
		return nil, errors.New("avr: bad codec64 magic")
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	data = data[8:]
	minRecord := 3 + compress.LineBytes
	blocks := (count + compress.BlockValues64 - 1) / compress.BlockValues64
	if len(data) < blocks*minRecord {
		return nil, errTruncated
	}
	out := make([]float64, 0, count)
	for len(out) < count {
		if len(data) < 3 {
			return nil, errTruncated
		}
		hdr := data[0]
		bias := int16(binary.LittleEndian.Uint16(data[1:]))
		data = data[3:]
		var vals [compress.BlockValues64]uint64
		if hdr&0x80 != 0 {
			size := int(hdr & 0x0F)
			if size < 1 || size > compress.MaxCompressedLines {
				return nil, fmt.Errorf("avr: bad block size %d", size)
			}
			if len(data) < size*compress.LineBytes {
				return nil, errTruncated
			}
			var summary [compress.SummaryValues64]int64
			for i := range summary {
				summary[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			}
			var bm *[compress.BitmapBytes64]byte
			var outliers []uint64
			if size > 1 {
				var b [compress.BitmapBytes64]byte
				copy(b[:], data[compress.LineBytes:])
				bm = &b
				k := 0
				for _, x := range b {
					for ; x != 0; x &= x - 1 {
						k++
					}
				}
				if compress.CompressedLines64(k) != size {
					return nil, err64BitmapSize
				}
				p := compress.LineBytes + compress.BitmapBytes64
				outliers = make([]uint64, k)
				for i := range outliers {
					outliers[i] = binary.LittleEndian.Uint64(data[p:])
					p += 8
				}
			}
			data = data[size*compress.LineBytes:]
			vals = compress.Decompress64(&summary, bm, outliers, bias)
		} else {
			if len(data) < compress.BlockBytes {
				return nil, errTruncated
			}
			for i := range vals {
				vals[i] = binary.LittleEndian.Uint64(data[8*i:])
			}
			data = data[compress.BlockBytes:]
		}
		for i := 0; i < compress.BlockValues64 && len(out) < count; i++ {
			out = append(out, math.Float64frombits(vals[i]))
		}
	}
	return out, nil
}
