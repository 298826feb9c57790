package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"avr/internal/compress"
)

// The AVR record stream — what the codec writes, the store frames and
// every read path (decode, cache fill, compressed-domain query) walks.
// DESIGN.md §5.6 has the byte-level table; this file is the format's one
// owner: the writers below and the Cursor are the only code that knows
// the magics, the record header and the payload offsets.

// Layout holds the constants by which the fp32 and fp64 streams differ.
// Both keep one 64-byte summary line per compressed record (16 × int32
// or 8 × int64, see ReadSummary32/64).
type Layout struct {
	Magic        [4]byte
	Width        int // value width in bits
	HeaderBytes  int // record header: flags byte + little-endian bias
	BlockValues  int // values per record
	BitmapBytes  int // outlier bitmap, one bit per value
	OutlierBytes int // one packed outlier
}

var (
	Layout32 = Layout{
		Magic: [4]byte{'A', 'V', 'R', '1'}, Width: 32, HeaderBytes: headerBytes32,
		BlockValues: compress.BlockValues, BitmapBytes: compress.BitmapBytes, OutlierBytes: 4,
	}
	Layout64 = Layout{
		Magic: [4]byte{'A', 'V', 'R', '8'}, Width: 64, HeaderBytes: headerBytes64,
		BlockValues: compress.BlockValues64, BitmapBytes: compress.BitmapBytes64, OutlierBytes: 8,
	}
)

const (
	streamHeaderBytes = 8 // magic + uint32 value count
	headerBytes32     = 2 // record header: flags + int8 bias
	headerBytes64     = 3 // record header: flags + int16 bias

	flagCompressed = 0x80 // record flags: payload is summary [+ bitmap + outliers]
	flagMethodBit  = 6    // record flags: placement method (fp32 streams)
	flagSizeMask   = 0x0F // record flags: payload size in cachelines
)

// lines is the payload size in cachelines of a record with k outliers.
func (l *Layout) lines(k int) int {
	if l.Width == 64 {
		return compress.CompressedLines64(k)
	}
	return compress.CompressedLines(k)
}

// StreamWidth reports the value width (32 or 64) announced by a stream's
// magic, 0 when data starts with neither.
func StreamWidth(data []byte) int {
	for _, l := range [...]*Layout{&Layout32, &Layout64} {
		if len(data) >= 4 && [4]byte(data[:4]) == l.Magic {
			return l.Width
		}
	}
	return 0
}

// AppendHeader appends the stream header for count values.
func (l *Layout) AppendHeader(dst []byte, count int) []byte {
	dst = append(dst, l.Magic[:]...)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// zeroBlock backs appendZeros: the largest zero run ever appended is one
// full uncompressed block.
var zeroBlock [compress.BlockBytes]byte

// appendZeros appends n zero bytes (n ≤ BlockBytes) to dst.
func appendZeros(dst []byte, n int) []byte {
	return append(dst, zeroBlock[:n]...)
}

// AppendCompressed32 appends one compressed fp32 record: header, summary
// line, then bitmap and packed outliers when present, zero-padded to
// SizeLines whole cachelines.
func AppendCompressed32(dst []byte, r *compress.FastResult) ([]byte, error) {
	if r.SizeLines > compress.MaxCompressedLines {
		return dst, ErrTooLarge
	}
	dst = append(dst, flagCompressed|byte(r.Method)<<flagMethodBit|byte(r.SizeLines), byte(r.Bias))
	base := len(dst)
	dst = appendZeros(dst, r.SizeLines*compress.LineBytes)
	buf := dst[base:]
	for i, v := range r.Summary {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	if len(r.Outliers) > 0 {
		copy(buf[compress.LineBytes:], r.Bitmap[:])
		off := compress.LineBytes + compress.BitmapBytes
		for _, o := range r.Outliers {
			binary.LittleEndian.PutUint32(buf[off:], o)
			off += 4
		}
	}
	return dst, nil
}

// AppendRaw32 appends one raw fp32 record: a zero header and the 1 KiB
// uncompressed block image (Fig. 2b).
func AppendRaw32(dst []byte, vals *[compress.BlockValues]uint32) []byte {
	dst = append(dst, 0, 0)
	base := len(dst)
	dst = appendZeros(dst, compress.BlockBytes)
	ValuesToBytes(vals, dst[base:])
	return dst
}

// AppendCompressed64 is AppendCompressed32 for an fp64 record (int16
// bias, 8 × int64 summary, 16-byte bitmap, 8-byte outliers).
func AppendCompressed64(dst []byte, r *compress.FastResult64) []byte {
	dst = append(dst, flagCompressed|byte(r.SizeLines))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Bias))
	base := len(dst)
	dst = appendZeros(dst, r.SizeLines*compress.LineBytes)
	buf := dst[base:]
	for i, v := range r.Summary {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	if len(r.Outliers) > 0 {
		copy(buf[compress.LineBytes:], r.Bitmap[:])
		off := compress.LineBytes + compress.BitmapBytes64
		for _, o := range r.Outliers {
			binary.LittleEndian.PutUint64(buf[off:], o)
			off += 8
		}
	}
	return dst
}

// AppendRaw64 is AppendRaw32 for 128 raw doubles.
func AppendRaw64(dst []byte, vals *[compress.BlockValues64]uint64) []byte {
	dst = append(dst, 0, 0, 0)
	base := len(dst)
	dst = appendZeros(dst, compress.BlockBytes)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[base+8*i:], v)
	}
	return dst
}

// ReadSummary32 decodes an fp32 record's summary line.
func ReadSummary32(dst *[compress.SummaryValues]int32, line []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(line[4*i:]))
	}
}

// ReadSummary64 decodes an fp64 record's summary line.
func ReadSummary64(dst *[compress.SummaryValues64]int64, line []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(line[8*i:]))
	}
}

// ErrMalformed is wrapped by every structural rejection of a stream.
var ErrMalformed = errors.New("malformed AVR stream")

var errTruncated = fmt.Errorf("%w: truncated", ErrMalformed)

// Record is one validated record of a stream. A raw record sets only Raw
// (its 1 KiB block image) and Values. A compressed record has Raw nil,
// its summary line in Summary, and — both nil when the record is
// outlier-free — the bitmap and exactly the packed outlier bytes, never
// the record's zero padding. The slices alias the stream.
type Record struct {
	Raw      []byte
	Method   compress.Method // meaningful in fp32 streams only
	Bias     int16           // int8 range in fp32 streams
	Summary  []byte
	Bitmap   []byte
	Outliers []byte
	Values   int // BlockValues, or fewer for the stream's last record
}

// Cursor reads an in-memory stream one validated record at a time,
// zero-copy. Bytes after the last record are ignored.
type Cursor struct {
	lay   *Layout
	data  []byte // the stream
	off   int    // next record
	left  int    // values not yet yielded
	count int
}

// Open starts a cursor over a stream, validating its header: the magic,
// the value count against want (negative accepts any), and that the
// stream is long enough for count values at the minimum record size — so
// a hostile count cannot size an allocation the bytes do not justify.
func Open(lay *Layout, data []byte, want int) (Cursor, error) {
	c := Cursor{lay: lay, data: data}
	if len(data) < streamHeaderBytes {
		return c, fmt.Errorf("%w: shorter than its header", ErrMalformed)
	}
	if [4]byte(data[:4]) != lay.Magic {
		return c, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	if want >= 0 && count != want {
		return c, fmt.Errorf("%w: holds %d values, want %d", ErrMalformed, count, want)
	}
	blocks := int64(count+lay.BlockValues-1) / int64(lay.BlockValues)
	if int64(len(data)-streamHeaderBytes) < blocks*int64(lay.HeaderBytes+compress.LineBytes) {
		return c, errTruncated
	}
	c.count, c.left, c.off = count, count, streamHeaderBytes
	return c, nil
}

// Count is the number of values the stream holds.
func (c *Cursor) Count() int { return c.count }

// More reports whether records remain.
func (c *Cursor) More() bool { return c.left > 0 }

// Next fills rec with the next record — in place, a record is too large
// to hand back by value once per block. Call it only while More reports
// true; after an error the cursor is spent and rec holds nothing useful.
func (c *Cursor) Next(rec *Record) error {
	l := c.lay
	h := l.HeaderBytes
	img := c.data[c.off:]
	if len(img) < h+compress.LineBytes {
		return errTruncated
	}
	*rec = Record{Values: min(c.left, l.BlockValues)}
	c.left -= rec.Values
	flags := img[0]
	if flags&flagCompressed == 0 {
		if len(img) < h+compress.BlockBytes {
			return errTruncated
		}
		rec.Raw = img[h : h+compress.BlockBytes]
		c.off += h + compress.BlockBytes
		return nil
	}
	lines := int(flags & flagSizeMask)
	if lines < 1 || lines > compress.MaxCompressedLines {
		return fmt.Errorf("%w: record size %d", ErrMalformed, lines)
	}
	if len(img) < h+lines*compress.LineBytes {
		return errTruncated
	}
	rec.Method = compress.Method(flags >> flagMethodBit & 1)
	if l.Width == 64 {
		rec.Bias = int16(binary.LittleEndian.Uint16(img[1:]))
	} else {
		rec.Bias = int16(int8(img[1]))
	}
	rec.Summary = img[h : h+compress.LineBytes]
	if lines > 1 {
		bm, out := h+compress.LineBytes, h+compress.LineBytes+l.BitmapBytes
		k := 0
		for _, b := range img[bm:out] {
			k += bits.OnesCount8(b)
		}
		if l.lines(k) != lines {
			return fmt.Errorf("%w: %d outliers in a record of size %d", ErrMalformed, k, lines)
		}
		rec.Bitmap, rec.Outliers = img[bm:out], img[out:out+k*l.OutlierBytes]
	}
	c.off += h + lines*compress.LineBytes
	return nil
}
