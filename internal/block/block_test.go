package block

import (
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

func TestEncodeDecodeNoOutliers(t *testing.T) {
	r := compressSmooth(t)
	if !r.OK || len(r.Outliers) != 0 {
		t.Fatalf("setup: OK=%v outliers=%d", r.OK, len(r.Outliers))
	}
	buf, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != compress.LineBytes {
		t.Fatalf("buffer = %d bytes, want one line", len(buf))
	}
	sum, bm, outs, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum != r.Summary {
		t.Error("summary mismatch")
	}
	if bm != nil || len(outs) != 0 {
		t.Error("unexpected outliers decoded")
	}
}

func TestEncodeDecodeWithOutliers(t *testing.T) {
	r := compressSmooth(t, 40, 130, 220)
	if !r.OK || len(r.Outliers) == 0 {
		t.Fatalf("setup: OK=%v outliers=%d", r.OK, len(r.Outliers))
	}
	buf, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != r.SizeLines*compress.LineBytes {
		t.Fatalf("buffer = %d bytes, want %d lines", len(buf), r.SizeLines)
	}
	sum, bm, outs, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum != r.Summary {
		t.Error("summary mismatch")
	}
	if bm == nil || *bm != r.Bitmap {
		t.Error("bitmap mismatch")
	}
	if len(outs) != len(r.Outliers) {
		t.Fatalf("decoded %d outliers, want %d", len(outs), len(r.Outliers))
	}
	for i := range outs {
		if outs[i] != r.Outliers[i] {
			t.Fatalf("outlier %d mismatch", i)
		}
	}
}

func TestEncodeRejectsTooLarge(t *testing.T) {
	r := compressSmooth(t)
	r.SizeLines = compress.MaxCompressedLines + 1
	if _, err := Encode(r); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeRejectsBadLength(t *testing.T) {
	if _, _, _, err := Decode(make([]byte, 63)); err == nil {
		t.Error("expected error for partial line")
	}
	if _, _, _, err := Decode(nil); err == nil {
		t.Error("expected error for empty buffer")
	}
	if _, _, _, err := Decode(make([]byte, 9*compress.LineBytes)); err == nil {
		t.Error("expected error for oversized buffer")
	}
}

func TestDecodeRejectsInconsistentBitmap(t *testing.T) {
	// Two lines but an empty bitmap: CompressedLines(0)=1 != 2.
	buf := make([]byte, 2*compress.LineBytes)
	if _, _, _, err := Decode(buf); err != ErrBadSize {
		t.Errorf("err = %v, want ErrBadSize", err)
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
		buf, err := Encode(&r)
		if err != nil {
			return false
		}
		sum, bm, outs, err := Decode(buf)
		if err != nil || sum != r.Summary {
			return false
		}
		dec := compress.Decompress(&sum, bm, outs, r.Method, r.Bias, compress.Float32)
		return dec == r.Reconstructed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValuesBytesRoundTrip(t *testing.T) {
	var vals, back [compress.BlockValues]uint32
	for i := range vals {
		vals[i] = uint32(i * 0x01010101)
	}
	buf := make([]byte, compress.BlockBytes)
	ValuesToBytes(&vals, buf)
	BytesToValues(buf, &back)
	if vals != back {
		t.Error("values round trip failed")
	}
}
