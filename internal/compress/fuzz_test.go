package compress

import (
	"math"
	"math/bits"
	"testing"
)

// blockFromBytes builds a 256-value block by tiling the fuzz input.
func blockFromBytes(data []byte) [BlockValues]uint32 {
	var vals [BlockValues]uint32
	if len(data) == 0 {
		return vals
	}
	for i := 0; i < BlockValues; i++ {
		var v uint32
		for j := 0; j < 4; j++ {
			v |= uint32(data[(i*4+j)%len(data)]) << (8 * j)
		}
		vals[i] = v
	}
	return vals
}

// FuzzCompressDecompress drives arbitrary bit patterns through the full
// compress → decompress round trip and checks the codec's contracts: no
// panics, size invariants, bitmap/outlier consistency, the per-value
// (T1) and average (T2) error bounds, exact outlier preservation, and
// that Decompress reproduces the compressor's own reconstruction.
func FuzzCompressDecompress(f *testing.F) {
	smooth := make([]byte, BlockValues*4)
	for i := 0; i < BlockValues; i++ {
		b := math.Float32bits(100 + 0.01*float32(i))
		smooth[i*4] = byte(b)
		smooth[i*4+1] = byte(b >> 8)
		smooth[i*4+2] = byte(b >> 16)
		smooth[i*4+3] = byte(b >> 24)
	}
	f.Add(smooth, false, uint8(2))
	f.Add([]byte{0, 0, 0, 0}, false, uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0x80, 0x7F, 1, 2, 3, 4}, false, uint8(3)) // NaN mixed in
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0}, true, uint8(5))        // small integers
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x80, 0xFE}, true, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, fixedPoint bool, t1Shift uint8) {
		// Power-of-two T1 in [1/8, 1/256] (T2 = T1/2, as in the paper),
		// so the hardware comparator's mantissa-bit bound maps exactly
		// onto the arithmetic relative-error bound asserted below.
		t1 := 1.0 / float64(uint32(8)<<(t1Shift%6))
		th := Thresholds{T1: t1, T2: t1 / 2}
		dt := Float32
		if fixedPoint {
			dt = Fixed32
		}
		vals := blockFromBytes(data)

		c := NewCompressor(th)
		r := c.Compress(&vals, dt)

		// Bitmap and outlier list must agree whatever the outcome.
		pop := 0
		for _, b := range r.Bitmap {
			pop += bits.OnesCount8(b)
		}
		if pop != len(r.Outliers) {
			t.Fatalf("bitmap popcount %d != %d outliers", pop, len(r.Outliers))
		}

		if r.OK {
			if r.SizeLines < 1 || r.SizeLines > MaxCompressedLines {
				t.Fatalf("OK result with SizeLines %d", r.SizeLines)
			}
			if want := CompressedLines(len(r.Outliers)); r.SizeLines != want {
				t.Fatalf("SizeLines %d != CompressedLines(%d) = %d", r.SizeLines, len(r.Outliers), want)
			}
			if r.AvgError > th.T2 {
				t.Fatalf("OK result with AvgError %v > T2 %v", r.AvgError, th.T2)
			}
		}

		// Decode must reproduce the compressor's own reconstruction.
		dec := Decompress(&r.Summary, &r.Bitmap, r.Outliers, r.Method, r.Bias, r.Type)
		if dec != r.Reconstructed {
			t.Fatal("Decompress disagrees with Result.Reconstructed")
		}

		// Outliers are stored exactly; non-outliers obey the T1 bound.
		oi := 0
		for i := 0; i < BlockValues; i++ {
			if r.Bitmap[i>>3]&(1<<(i&7)) != 0 {
				if dec[i] != vals[i] {
					t.Fatalf("outlier %d not exact: %#x != %#x", i, dec[i], vals[i])
				}
				oi++
				continue
			}
			checkValueBound(t, i, vals[i], dec[i], dt, th.T1)
		}
		if oi != len(r.Outliers) {
			t.Fatalf("visited %d outliers, result has %d", oi, len(r.Outliers))
		}
	})
}

// checkValueBound asserts the non-outlier contract for one value: the
// reconstruction's relative error stays within T1 (with the hardware
// comparator's special-case semantics for NaN/Inf, zeros and denormals).
func checkValueBound(t *testing.T, i int, orig, approx uint32, dt DataType, t1 float64) {
	t.Helper()
	if dt == Fixed32 {
		o := float64(int32(orig))
		a := float64(int32(approx))
		if o == 0 {
			if a != 0 {
				t.Fatalf("value %d: zero reconstructed as %v", i, a)
			}
			return
		}
		if re := math.Abs(a-o) / math.Abs(o); re > t1*(1+1e-12) {
			t.Fatalf("value %d: fixed relative error %v > T1 %v", i, re, t1)
		}
		return
	}
	// Float32: NaN/Inf must be bit-exact, zeros/denormals flush to
	// zero/denormal, normals obey the mantissa-difference bound, which
	// for power-of-two T1 implies |a-o|/|o| < T1.
	exp := func(b uint32) uint32 { return (b >> 23) & 0xFF }
	switch {
	case exp(orig) == 0xFF:
		if approx != orig {
			t.Fatalf("value %d: special %#x reconstructed as %#x", i, orig, approx)
		}
	case exp(orig) == 0:
		if exp(approx) != 0 {
			t.Fatalf("value %d: zero/denormal %#x reconstructed as normal %#x", i, orig, approx)
		}
	default:
		o := float64(math.Float32frombits(orig))
		a := float64(math.Float32frombits(approx))
		if re := math.Abs(a-o) / math.Abs(o); re >= t1 {
			t.Fatalf("value %d: relative error %v >= T1 %v (orig %#x approx %#x)", i, re, t1, orig, approx)
		}
	}
}
