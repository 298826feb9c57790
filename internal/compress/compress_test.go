package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func floatBlock(f func(i int) float32) *[BlockValues]uint32 {
	var blk [BlockValues]uint32
	for i := range blk {
		blk[i] = math.Float32bits(f(i))
	}
	return &blk
}

func fixedBlock(f func(i int) int32) *[BlockValues]uint32 {
	var blk [BlockValues]uint32
	for i := range blk {
		blk[i] = uint32(f(i))
	}
	return &blk
}

func relErr(a, b float64) float64 {
	if a == 0 {
		return math.Abs(b)
	}
	return math.Abs(a-b) / math.Abs(a)
}

func TestCompressedLines(t *testing.T) {
	cases := []struct{ k, want int }{
		{0, 1},  // summary only
		{1, 2},  // summary + bitmap(32B)+4B in one line
		{8, 2},  // 32+32 = 64B exactly
		{9, 3},  // spills into a third line
		{24, 3}, // 32+96=128B
		{25, 4},
		{104, 8}, // 32+416=448B -> 7 extra lines + summary
	}
	for _, c := range cases {
		if got := CompressedLines(c.k); got != c.want {
			t.Errorf("CompressedLines(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestMaxOutliers(t *testing.T) {
	k := MaxOutliers()
	if CompressedLines(k) > MaxCompressedLines {
		t.Errorf("MaxOutliers()=%d does not fit", k)
	}
	if CompressedLines(k+1) <= MaxCompressedLines {
		t.Errorf("MaxOutliers()=%d is not maximal", k)
	}
}

func TestMantissaBits(t *testing.T) {
	cases := []struct {
		t1   float64
		want int
	}{
		{0.5, 1},
		{0.25, 2},
		{1.0 / 32, 5},
		{0.01, 7}, // 1/128 < 0.01
		{0, 23},
	}
	for _, c := range cases {
		th := Thresholds{T1: c.t1, T2: c.t1 / 2}
		if got := th.MantissaBits(); got != c.want {
			t.Errorf("MantissaBits(T1=%v) = %d, want %d", c.t1, got, c.want)
		}
	}
}

func TestCompressConstantBlock(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	r := c.Compress(floatBlock(func(int) float32 { return 3.25 }), Float32)
	if !r.OK {
		t.Fatal("constant block must compress")
	}
	if r.SizeLines != 1 {
		t.Errorf("constant block size = %d lines, want 1", r.SizeLines)
	}
	if len(r.Outliers) != 0 {
		t.Errorf("constant block has %d outliers", len(r.Outliers))
	}
	for i, b := range r.Reconstructed {
		got := math.Float32frombits(b)
		if re := relErr(3.25, float64(got)); re > 1e-4 {
			t.Fatalf("value %d reconstructed as %v", i, got)
		}
	}
}

func TestCompressZeroBlock(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	r := c.Compress(floatBlock(func(int) float32 { return 0 }), Float32)
	if !r.OK || r.SizeLines != 1 {
		t.Fatalf("zero block: OK=%v size=%d", r.OK, r.SizeLines)
	}
	for i, b := range r.Reconstructed {
		if math.Float32frombits(b) != 0 {
			t.Fatalf("value %d reconstructed as %v, want 0", i, math.Float32frombits(b))
		}
	}
}

func TestCompressSmoothRamp1D(t *testing.T) {
	// A smooth linear ramp is the best case for 1D interpolation.
	c := NewCompressor(DefaultThresholds())
	r := c.Compress(floatBlock(func(i int) float32 { return 100 + float32(i)*0.05 }), Float32)
	if !r.OK {
		t.Fatalf("smooth ramp must compress (avg err %v, %d outliers)", r.AvgError, len(r.Outliers))
	}
	if r.SizeLines > 2 {
		t.Errorf("smooth ramp size = %d lines", r.SizeLines)
	}
	for i, b := range r.Reconstructed {
		want := 100 + float64(i)*0.05
		if re := relErr(want, float64(math.Float32frombits(b))); re > DefaultThresholds().T1 {
			t.Fatalf("value %d rel err %v beyond T1", i, re)
		}
	}
}

func TestCompressSmooth2DSurface(t *testing.T) {
	// A bilinear surface favours the 2D variant.
	c := NewCompressor(DefaultThresholds())
	blk := floatBlock(func(i int) float32 {
		r, col := i/16, i%16
		return 50 + 0.2*float32(r) + 0.3*float32(col)
	})
	r := c.Compress(blk, Float32)
	if !r.OK {
		t.Fatalf("2D surface must compress (avg err %v, %d outliers)", r.AvgError, len(r.Outliers))
	}
	if r.Method != Method2D {
		t.Errorf("winning method = %v, want 2D", r.Method)
	}
}

func TestCompressRandomNoiseFails(t *testing.T) {
	// White noise across many magnitudes cannot be summarised by
	// averaging: the attempt must fail (too many outliers).
	rng := rand.New(rand.NewSource(7))
	c := NewCompressor(DefaultThresholds())
	blk := floatBlock(func(int) float32 {
		return float32(rng.NormFloat64()) * float32(math.Exp2(float64(rng.Intn(20)-10)))
	})
	r := c.Compress(blk, Float32)
	if r.OK {
		t.Errorf("white noise compressed to %d lines with %d outliers", r.SizeLines, len(r.Outliers))
	}
}

func TestOutlierIsolation(t *testing.T) {
	// One spike in an otherwise constant block: exactly that value
	// becomes an outlier and is reconstructed exactly.
	c := NewCompressor(DefaultThresholds())
	blk := floatBlock(func(i int) float32 {
		if i == 77 {
			return 1e6
		}
		return 2.0
	})
	r := c.Compress(blk, Float32)
	if !r.OK {
		t.Fatalf("spiked block must compress: avgerr=%v outliers=%d", r.AvgError, len(r.Outliers))
	}
	found := false
	for i := 0; i < BlockValues; i++ {
		isOut := r.Bitmap[i>>3]&(1<<(i&7)) != 0
		if i == 77 {
			if !isOut {
				t.Error("spike at 77 not marked outlier")
			}
			found = true
			if math.Float32frombits(r.Reconstructed[77]) != 1e6 {
				t.Error("outlier not reconstructed exactly")
			}
		}
	}
	if !found {
		t.Fatal("no outlier found")
	}
	// The spike contaminates its sub-block average (the hardware averages
	// before detecting outliers), so its neighbourhood may become outliers
	// too — but the damage must stay local.
	if r.SizeLines > 4 {
		t.Errorf("size = %d lines; spike damage should stay local", r.SizeLines)
	}
	if r.Bitmap[0]&1 != 0 {
		t.Error("value 0, far from the spike, must not be an outlier")
	}
}

func TestNaNAlwaysOutlier(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	blk := floatBlock(func(i int) float32 {
		if i == 3 {
			return float32(math.NaN())
		}
		return 1.0
	})
	r := c.Compress(blk, Float32)
	if r.Bitmap[0]&(1<<3) == 0 {
		t.Error("NaN not marked as outlier")
	}
	if !math.IsNaN(float64(math.Float32frombits(r.Reconstructed[3]))) {
		t.Error("NaN not preserved exactly")
	}
}

func TestSignFlipIsOutlier(t *testing.T) {
	// Alternating signs of equal magnitude average to ~0: every value is
	// an outlier (sign or exponent mismatch) and compression fails.
	c := NewCompressor(DefaultThresholds())
	blk := floatBlock(func(i int) float32 {
		if i%2 == 0 {
			return 5
		}
		return -5
	})
	r := c.Compress(blk, Float32)
	if r.OK {
		t.Errorf("alternating-sign block compressed: %d outliers", len(r.Outliers))
	}
}

func TestFixed32Compression(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	r := c.Compress(fixedBlock(func(i int) int32 { return 10000 + int32(i) }), Fixed32)
	if !r.OK {
		t.Fatalf("fixed ramp must compress: avg err %v, outliers %d", r.AvgError, len(r.Outliers))
	}
	for i, b := range r.Reconstructed {
		want := float64(10000 + i)
		if re := relErr(want, float64(int32(b))); re > DefaultThresholds().T1 {
			t.Fatalf("fixed value %d rel err %v", i, re)
		}
	}
}

func TestFixed32ZeroHandling(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	r := c.Compress(fixedBlock(func(i int) int32 { return 0 }), Fixed32)
	if !r.OK || len(r.Outliers) != 0 {
		t.Fatalf("zero fixed block: OK=%v outliers=%d", r.OK, len(r.Outliers))
	}
}

func TestDecompressMatchesReconstructed(t *testing.T) {
	// Decompress(compressed parts) must equal the Reconstructed the
	// compressor computed — the simulator relies on this equivalence.
	rng := rand.New(rand.NewSource(42))
	c := NewCompressor(DefaultThresholds())
	for trial := 0; trial < 50; trial++ {
		base := float32(math.Exp2(float64(rng.Intn(24) - 12)))
		blk := floatBlock(func(i int) float32 {
			v := base * (1 + 0.01*float32(rng.NormFloat64()))
			if rng.Intn(30) == 0 {
				v *= 40 // sprinkle outliers
			}
			return v
		})
		r := c.Compress(blk, Float32)
		var bm *[BitmapBytes]byte
		if len(r.Outliers) > 0 {
			bm = &r.Bitmap
		}
		dec := Decompress(&r.Summary, bm, r.Outliers, r.Method, r.Bias, Float32)
		if dec != r.Reconstructed {
			t.Fatalf("trial %d: Decompress disagrees with Reconstructed", trial)
		}
		// The kernel every read path runs, over the wire form of the same
		// parts: a full block in place, and a partial last record.
		var bmBytes, outBytes []byte
		if bm != nil {
			bmBytes = bm[:]
			for _, o := range r.Outliers {
				outBytes = binary.LittleEndian.AppendUint32(outBytes, o)
			}
		}
		for _, n := range []int{BlockValues, 1 + rng.Intn(BlockValues-1)} {
			got := make([]uint32, n)
			c.DecompressBits32(got, &r.Summary, bmBytes, outBytes, r.Method, r.Bias)
			if !slices.Equal(got, dec[:n]) {
				t.Fatalf("trial %d: DecompressBits32 of %d values disagrees with Decompress", trial, n)
			}
		}
	}
}

func TestErrorWithinT1Property(t *testing.T) {
	// Property: every non-outlier value of a successful compression has
	// relative error below T1.
	th := DefaultThresholds()
	c := NewCompressor(th)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := 1 + rng.Float64()*1000
		blk := floatBlock(func(i int) float32 {
			return float32(base * (1 + 0.02*rng.NormFloat64()))
		})
		r := c.Compress(blk, Float32)
		if !r.OK {
			return true
		}
		for i := 0; i < BlockValues; i++ {
			if r.Bitmap[i>>3]&(1<<(i&7)) != 0 {
				continue
			}
			orig := float64(math.Float32frombits(blk[i]))
			got := float64(math.Float32frombits(r.Reconstructed[i]))
			if relErr(orig, got) >= th.T1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAvgErrorWithinT2Property(t *testing.T) {
	th := DefaultThresholds()
	c := NewCompressor(th)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blk := floatBlock(func(i int) float32 {
			return float32(100 + 5*rng.NormFloat64())
		})
		r := c.Compress(blk, Float32)
		return !r.OK || r.AvgError <= th.T2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSizeLinesMatchesOutliersProperty(t *testing.T) {
	c := NewCompressor(DefaultThresholds())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blk := floatBlock(func(i int) float32 {
			v := float32(50 + rng.NormFloat64())
			if rng.Intn(10) == 0 {
				v = float32(rng.NormFloat64() * 1e5)
			}
			return v
		})
		r := c.Compress(blk, Float32)
		if !r.OK {
			return true
		}
		return r.SizeLines == CompressedLines(len(r.Outliers))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVariantRestriction(t *testing.T) {
	blk := floatBlock(func(i int) float32 {
		r, col := i/16, i%16
		return 50 + 0.2*float32(r) + 0.3*float32(col)
	})
	c1 := NewCompressorVariants(DefaultThresholds(), Variant1D)
	r1 := c1.Compress(blk, Float32)
	if r1.Method != Method1D {
		t.Errorf("1D-only compressor chose %v", r1.Method)
	}
	c2 := NewCompressorVariants(DefaultThresholds(), Variant2D)
	r2 := c2.Compress(blk, Float32)
	if r2.Method != Method2D {
		t.Errorf("2D-only compressor chose %v", r2.Method)
	}
}

func TestVariantMaskZeroDefaultsToBoth(t *testing.T) {
	c := NewCompressorVariants(DefaultThresholds(), 0)
	r := c.Compress(floatBlock(func(int) float32 { return 1 }), Float32)
	if !r.OK {
		t.Error("default-variant compressor failed on constant block")
	}
}

func TestInterpolate1DMonotone(t *testing.T) {
	// A monotone summary must reconstruct monotonically (no overshoot
	// between interpolation knots).
	var sum [SummaryValues]int32
	for i := range sum {
		sum[i] = int32(i * 1000)
	}
	var out [BlockValues]int32
	interpolate(&sum, &out, Method1D)
	for j := 1; j < BlockValues; j++ {
		if out[j] < out[j-1] {
			t.Fatalf("1D reconstruction not monotone at %d: %d < %d", j, out[j], out[j-1])
		}
	}
	if out[0] != sum[0] || out[BlockValues-1] != sum[SummaryValues-1] {
		t.Error("edges not clamped to outer averages")
	}
}

func TestInterpolate2DConstant(t *testing.T) {
	var sum [SummaryValues]int32
	for i := range sum {
		sum[i] = 4242
	}
	var out [BlockValues]int32
	interpolate(&sum, &out, Method2D)
	for j, v := range out {
		if v != 4242 {
			t.Fatalf("2D constant reconstruction differs at %d: %d", j, v)
		}
	}
}

func TestInterpolate2DBoundsProperty(t *testing.T) {
	// Property: interpolation never exceeds [min, max] of the summary.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sum [SummaryValues]int32
		lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
		for i := range sum {
			sum[i] = int32(rng.Intn(2000000) - 1000000)
			if sum[i] < lo {
				lo = sum[i]
			}
			if sum[i] > hi {
				hi = sum[i]
			}
		}
		for _, m := range []Method{Method1D, Method2D} {
			var out [BlockValues]int32
			interpolate(&sum, &out, m)
			for _, v := range out {
				if v < lo-1 || v > hi+1 { // ±1 for truncation
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if Float32.String() != "float32" || Fixed32.String() != "fixed32" {
		t.Error("DataType.String")
	}
	if Method1D.String() != "1D" || Method2D.String() != "2D" {
		t.Error("Method.String")
	}
	if DataType(9).String() == "" || Method(9).String() == "" {
		t.Error("unknown values must still print")
	}
}

func TestBiasImprovesSmallMagnitudes(t *testing.T) {
	// Tiny values would be crushed to zero in Q15.16 without biasing.
	c := NewCompressor(DefaultThresholds())
	blk := floatBlock(func(i int) float32 { return 1e-6 * (1 + 0.001*float32(i%16)) })
	r := c.Compress(blk, Float32)
	if !r.OK {
		t.Fatalf("tiny-magnitude block must compress via biasing: outliers=%d", len(r.Outliers))
	}
	if r.Bias == 0 {
		t.Error("expected a nonzero bias")
	}
}

func TestHugeMagnitudesBias(t *testing.T) {
	// Large values saturate Q15.16 without a negative bias.
	c := NewCompressor(DefaultThresholds())
	blk := floatBlock(func(i int) float32 { return 1e20 * (1 + 0.001*float32(i%16)) })
	r := c.Compress(blk, Float32)
	if !r.OK {
		t.Fatalf("huge-magnitude block must compress via biasing: outliers=%d", len(r.Outliers))
	}
	if r.Bias >= 0 {
		t.Errorf("expected negative bias, got %d", r.Bias)
	}
}

func TestCompressWithOverridesThresholds(t *testing.T) {
	// The same mildly noisy block compresses under loose thresholds and
	// fails under tight ones, regardless of the constructor setting.
	rng := rand.New(rand.NewSource(21))
	var blk [BlockValues]uint32
	for i := range blk {
		blk[i] = math.Float32bits(float32(100 + rng.NormFloat64()))
	}
	c := NewCompressor(DefaultThresholds())
	loose := c.CompressWith(&blk, Float32, Thresholds{T1: 1.0 / 4, T2: 1.0 / 8})
	tight := c.CompressWith(&blk, Float32, Thresholds{T1: 1.0 / 8192, T2: 1.0 / 16384})
	if !loose.OK {
		t.Errorf("loose thresholds failed: %d outliers", len(loose.Outliers))
	}
	if tight.OK {
		t.Errorf("tight thresholds succeeded: %d lines", tight.SizeLines)
	}
	// The constructor's thresholds stay in effect for plain Compress.
	if got := c.Thresholds(); got != DefaultThresholds() {
		t.Errorf("constructor thresholds mutated: %+v", got)
	}
}

func TestLatencyConstants(t *testing.T) {
	// The paper's synthesis numbers are part of the public contract.
	if CompressLatency != 49 || DecompressLatency != 12 {
		t.Errorf("latencies = %d/%d, want 49/12", CompressLatency, DecompressLatency)
	}
}

// MaxOutliers is the largest outlier count that still fits in
// MaxCompressedLines.
func MaxOutliers() int {
	k := 0
	for CompressedLines(k+1) <= MaxCompressedLines {
		k++
	}
	return k
}
