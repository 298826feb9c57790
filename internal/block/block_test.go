package block

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"avr/internal/compress"
)

// compressSmooth builds a smooth ramp block (compresses with no outliers);
// spikes lists positions overridden with a huge value to force outliers.
func compressSmooth(t *testing.T, spikes ...int) *compress.Result {
	t.Helper()
	var blk [compress.BlockValues]uint32
	for i := range blk {
		blk[i] = math.Float32bits(100 + float32(i)*0.02)
	}
	for _, s := range spikes {
		blk[s] = math.Float32bits(1e7)
	}
	c := compress.NewCompressor(compress.DefaultThresholds())
	r := c.Compress(&blk, compress.Float32)
	return &r
}

// appendResult writes r as one compressed fp32 record.
func appendResult(dst []byte, r *compress.Result) ([]byte, error) {
	return AppendCompressed32(dst, &compress.FastResult{
		OK: r.OK, Method: r.Method, Bias: r.Bias, SizeLines: r.SizeLines,
		Summary: &r.Summary, Bitmap: &r.Bitmap, Outliers: r.Outliers,
	})
}

// parsed is a compressed record's payload as the compressor's types.
type parsed struct {
	summary  [compress.SummaryValues]int32
	bitmap   *[compress.BitmapBytes]byte
	outliers []uint32
}

// roundTrip writes r as a one-record stream and reads the record back
// through the Cursor, the way every reader of the format does.
func roundTrip(t *testing.T, r *compress.Result) (parsed, int) {
	t.Helper()
	stream, err := appendResult(Layout32.AppendHeader(nil, compress.BlockValues), r)
	if err != nil {
		t.Fatal(err)
	}
	var p parsed
	var rec Record
	c, err := Open(&Layout32, stream, compress.BlockValues)
	if err == nil {
		err = c.Next(&rec)
	}
	if err != nil {
		t.Fatal(err)
	}
	ReadSummary32(&p.summary, rec.Summary)
	if rec.Bitmap != nil {
		p.bitmap = (*[compress.BitmapBytes]byte)(rec.Bitmap)
	}
	for o := rec.Outliers; len(o) > 0; o = o[4:] {
		p.outliers = append(p.outliers, binary.LittleEndian.Uint32(o))
	}
	return p, len(stream) - streamHeaderBytes - headerBytes32
}

func TestEncodeDecodeNoOutliers(t *testing.T) {
	r := compressSmooth(t)
	if !r.OK || len(r.Outliers) != 0 {
		t.Fatalf("setup: OK=%v outliers=%d", r.OK, len(r.Outliers))
	}
	p, size := roundTrip(t, r)
	if size != compress.LineBytes {
		t.Fatalf("payload = %d bytes, want one line", size)
	}
	if p.summary != r.Summary {
		t.Error("summary mismatch")
	}
	if p.bitmap != nil || len(p.outliers) != 0 {
		t.Error("unexpected outliers decoded")
	}
}

func TestEncodeDecodeWithOutliers(t *testing.T) {
	r := compressSmooth(t, 40, 130, 220)
	if !r.OK || len(r.Outliers) == 0 {
		t.Fatalf("setup: OK=%v outliers=%d", r.OK, len(r.Outliers))
	}
	p, size := roundTrip(t, r)
	if size != r.SizeLines*compress.LineBytes {
		t.Fatalf("payload = %d bytes, want %d lines", size, r.SizeLines)
	}
	if p.summary != r.Summary {
		t.Error("summary mismatch")
	}
	if p.bitmap == nil || *p.bitmap != r.Bitmap {
		t.Error("bitmap mismatch")
	}
	if len(p.outliers) != len(r.Outliers) {
		t.Fatalf("decoded %d outliers, want %d", len(p.outliers), len(r.Outliers))
	}
	for i := range p.outliers {
		if p.outliers[i] != r.Outliers[i] {
			t.Fatalf("outlier %d mismatch", i)
		}
	}
}

func TestEncodeRejectsTooLarge(t *testing.T) {
	r := compressSmooth(t)
	r.SizeLines = compress.MaxCompressedLines + 1
	if _, err := appendResult(nil, r); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// refused reports whether the Cursor rejects a one-record fp32 stream
// whose record is flags, a zero bias and payload.
func refused(flags byte, payload []byte) bool {
	stream := append(Layout32.AppendHeader(nil, compress.BlockValues), flags, 0)
	c, err := Open(&Layout32, append(stream, payload...), compress.BlockValues)
	if err == nil {
		err = c.Next(new(Record))
	}
	return errors.Is(err, ErrMalformed)
}

func TestDecodeRejectsBadLength(t *testing.T) {
	if !refused(flagCompressed|1, make([]byte, 63)) {
		t.Error("expected error for partial line")
	}
	if !refused(flagCompressed, make([]byte, compress.LineBytes)) {
		t.Error("expected error for empty record")
	}
	if !refused(flagCompressed|9, make([]byte, 9*compress.LineBytes)) {
		t.Error("expected error for oversized record")
	}
}

func TestDecodeRejectsInconsistentBitmap(t *testing.T) {
	// Two lines but an empty bitmap: CompressedLines(0)=1 != 2.
	if !refused(flagCompressed|2, make([]byte, 2*compress.LineBytes)) {
		t.Error("expected error for a bitmap that disagrees with the size")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var blk [compress.BlockValues]uint32
		for i := range blk {
			v := float32(10 + rng.NormFloat64()*0.5)
			if rng.Intn(20) == 0 {
				v = float32(rng.NormFloat64() * 1e6)
			}
			blk[i] = math.Float32bits(v)
		}
		c := compress.NewCompressor(compress.DefaultThresholds())
		r := c.Compress(&blk, compress.Float32)
		if !r.OK {
			return true
		}
		p, _ := roundTrip(t, &r)
		if p.summary != r.Summary {
			return false
		}
		dec := compress.Decompress(&p.summary, p.bitmap, p.outliers, r.Method, r.Bias, compress.Float32)
		return dec == r.Reconstructed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValuesBytesRoundTrip(t *testing.T) {
	var vals [compress.BlockValues]uint32
	for i := range vals {
		vals[i] = uint32(i * 0x01010101)
	}
	buf := make([]byte, compress.BlockBytes)
	ValuesToBytes(&vals, buf)
	for i, v := range vals {
		if got := binary.LittleEndian.Uint32(buf[4*i:]); got != v {
			t.Fatalf("value %d: %#x, want %#x", i, got, v)
		}
	}
}
