package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"avr/internal/simd"
)

func doubleBlock(f func(i int) float64) *[BlockValues64]uint64 {
	var blk [BlockValues64]uint64
	for i := range blk {
		blk[i] = math.Float64bits(f(i))
	}
	return &blk
}

func TestCompress64Constant(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	r := c.Compress64(doubleBlock(func(int) float64 { return 7.25 }))
	if !r.OK || r.SizeLines != 1 {
		t.Fatalf("constant double block: OK=%v size=%d outliers=%d", r.OK, r.SizeLines, len(r.Outliers))
	}
	for i, b := range r.Reconstructed {
		got := math.Float64frombits(b)
		if math.Abs(got-7.25)/7.25 > 1e-6 {
			t.Fatalf("value %d = %v", i, got)
		}
	}
}

func TestCompress64Ramp(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	th := DefaultThresholds()
	r := c.Compress64(doubleBlock(func(i int) float64 { return 1000 + float64(i)*0.4 }))
	if !r.OK {
		t.Fatalf("ramp failed: avg %v, outliers %d", r.AvgError, len(r.Outliers))
	}
	for i, b := range r.Reconstructed {
		want := 1000 + float64(i)*0.4
		if math.Abs(math.Float64frombits(b)-want)/want > th.T1 {
			t.Fatalf("value %d error beyond T1", i)
		}
	}
}

func TestCompress64SpikeOutlier(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	blk := doubleBlock(func(i int) float64 {
		if i == 100 {
			return 1e9
		}
		return 3.0
	})
	r := c.Compress64(blk)
	if r.Bitmap[100>>3]&(1<<(100&7)) == 0 {
		t.Error("spike not an outlier")
	}
	if math.Float64frombits(r.Reconstructed[100]) != 1e9 {
		t.Error("outlier not exact")
	}
}

func TestCompress64NoiseFails(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewCompressor(DefaultThresholds())
	r := c.Compress64(doubleBlock(func(int) float64 {
		return rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
	}))
	if r.OK {
		t.Errorf("white noise compressed: %d lines", r.SizeLines)
	}
	if r.SizeLines != BlockLines {
		t.Errorf("failed block size = %d, want %d", r.SizeLines, BlockLines)
	}
}

func TestDecompress64MatchesReconstructed(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		base := math.Exp2(float64(rng.Intn(40) - 20))
		blk := doubleBlock(func(i int) float64 {
			v := base * (1 + 0.01*rng.NormFloat64())
			if rng.Intn(25) == 0 {
				v *= 50
			}
			return v
		})
		r := c.Compress64(blk)
		var bm *[BitmapBytes64]byte
		if len(r.Outliers) > 0 {
			bm = &r.Bitmap
		}
		dec := Decompress64(&r.Summary, bm, r.Outliers, r.Bias)
		if dec != r.Reconstructed {
			t.Fatalf("trial %d: decompress mismatch", trial)
		}
		var bmBytes, outBytes []byte
		if bm != nil {
			bmBytes = bm[:]
			for _, o := range r.Outliers {
				outBytes = binary.LittleEndian.AppendUint64(outBytes, o)
			}
		}
		for _, n := range []int{BlockValues64, 1 + rng.Intn(BlockValues64-1)} {
			got := make([]uint64, n)
			c.DecompressInto64(got, &r.Summary, bmBytes, outBytes, r.Bias)
			if !slices.Equal(got, dec[:n]) {
				t.Fatalf("trial %d: DecompressInto64 of %d values disagrees with Decompress64", trial, n)
			}
		}
	}
}

func TestCompressedLines64(t *testing.T) {
	cases := []struct{ k, want int }{
		{0, 1}, {1, 2}, {6, 2}, {7, 3}, {14, 3},
	}
	for _, c := range cases {
		if got := CompressedLines64(c.k); got != c.want {
			t.Errorf("CompressedLines64(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestCompress64TinyMagnitudesBias(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	r := c.Compress64(doubleBlock(func(i int) float64 { return 1e-200 * (1 + 0.001*float64(i%16)) }))
	if !r.OK {
		t.Fatalf("tiny doubles failed: %d outliers", len(r.Outliers))
	}
	if r.Bias == 0 {
		t.Error("expected nonzero bias")
	}
}

func TestCompress64ErrorBoundProperty(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	th := DefaultThresholds()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := 1 + rng.Float64()*1e6
		blk := doubleBlock(func(i int) float64 {
			return base * (1 + 0.02*rng.NormFloat64())
		})
		r := c.Compress64(blk)
		if !r.OK {
			return true
		}
		for i := 0; i < BlockValues64; i++ {
			if r.Bitmap[i>>3]&(1<<(i&7)) != 0 {
				continue
			}
			orig := math.Float64frombits(blk[i])
			got := math.Float64frombits(r.Reconstructed[i])
			if math.Abs(got-orig)/math.Abs(orig) >= th.T1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMantissaBits64Cap(t *testing.T) {
	th := Thresholds{T1: 0, T2: 0}
	if th.MantissaBits64() != 52 {
		t.Errorf("MantissaBits64 cap = %d", th.MantissaBits64())
	}
}

// TestErrCheckRecon64SumFallback pins the fp64 error sum past 2^53
// quanta. Alternating 1.0 and 1.4 reconstruct near 1.2, so each of the
// 128 mantissa deltas is about 0.2·2^52 — accepted under T1 = 1/4 (lim =
// 2^50) and summing past 2^53, where the kernel's scaled integer sum and
// the index-order float sum part ways. The compressor must report the
// latter, bit for bit with the reference.
func TestErrCheckRecon64SumFallback(t *testing.T) {
	if !simd.Enabled() {
		t.Skip("AVX-512 not available")
	}
	th := Thresholds{T1: 1.0 / 4, T2: 1.0 / 8}
	vals := doubleBlock(func(i int) float64 { return []float64{1.0, 1.4}[i&1] })
	c := NewCompressor(th)
	f := c.CompressFast64With(vals, th)
	want := ReferenceCompress64(vals, th)
	if f.OK != want.OK || len(f.Outliers) != len(want.Outliers) || math.Float64bits(f.AvgError) != math.Float64bits(want.AvgError) {
		t.Fatalf("fast64 (OK %v, %d outliers, err %v) != reference (OK %v, %d outliers, err %v)",
			f.OK, len(f.Outliers), f.AvgError, want.OK, len(want.Outliers), want.AvgError)
	}
	// The block does reach the fallback, and needs it.
	var bm [BitmapBytes64]byte
	lim := uint64(1) << (52 - th.MantissaBits64())
	dSum := simd.ErrCheckRecon64(vals, c.ReconstructFixed64(f.Summary), &bm, int64(-f.Bias), lim)
	if dSum < 1<<53 {
		t.Fatalf("Σd = %d, below 2^53: the block does not exercise the fallback", dSum)
	}
	if shortcut := float64(dSum) / (1 << 52) / float64(BlockValues64-len(f.Outliers)); shortcut == want.AvgError {
		t.Fatalf("Σd/2^52 gives the reference's AvgError %v here: the block does not tell the two sums apart", shortcut)
	}
}
