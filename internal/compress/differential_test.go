package compress_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"avr/internal/compress"
	"avr/internal/workloads"
)

// Block-level differential harness: the shipped flat-pass compressor
// (CompressFastWith / CompressFast64With, and the Compress adapters the
// simulator calls) against the scalar oracle in reference_test.go. Every
// output field must agree bit for bit, on blocks that compress and on
// blocks that do not — the simulator consumes Result on both outcomes,
// and the codec framing tests at the repo root only see winners.

var diffThresholds = []compress.Thresholds{
	{T1: 1.0 / 8, T2: 1.0 / 16},
	{T1: 1.0 / 32, T2: 1.0 / 64},
	{T1: 0.003, T2: 0.0015}, // not a power of two: the Fixed32 compare is arithmetic
}

var diffVariants = []compress.VariantMask{compress.Variant1D, compress.Variant2D, compress.VariantBoth}

// diff32 compares one 32-bit block through all three entry points, and
// the LLC's rebuild of the fast result (DecompressFast) with Decompress,
// and returns the oracle's result.
func diff32(t *testing.T, vals *[compress.BlockValues]uint32, dt compress.DataType, th compress.Thresholds, v compress.VariantMask) compress.Result {
	t.Helper()
	want := compress.ReferenceCompress(vals, dt, th, v)
	c := compress.NewCompressorVariants(th, v)

	f := c.CompressFastWith(vals, dt, th)
	if f.OK != want.OK || f.Method != want.Method || f.Bias != want.Bias || f.SizeLines != want.SizeLines {
		t.Fatalf("fast (OK %v, %v, bias %d, %d lines) != reference (OK %v, %v, bias %d, %d lines)",
			f.OK, f.Method, f.Bias, f.SizeLines, want.OK, want.Method, want.Bias, want.SizeLines)
	}
	if math.Float64bits(f.AvgError) != math.Float64bits(want.AvgError) {
		t.Fatalf("fast AvgError %v != reference %v", f.AvgError, want.AvgError)
	}
	if *f.Summary != want.Summary || *f.Bitmap != want.Bitmap || !slices.Equal(f.Outliers, want.Outliers) {
		t.Fatalf("fast summary/bitmap/outliers differ from the reference (%d vs %d outliers)",
			len(f.Outliers), len(want.Outliers))
	}
	var rebuilt [compress.BlockValues]uint32
	c.DecompressFast(&rebuilt, &f, dt)
	if rebuilt != compress.Decompress(f.Summary, f.Bitmap, f.Outliers, f.Method, f.Bias, dt) {
		t.Fatalf("DecompressFast != Decompress (OK %v, %v %v, %d outliers)", f.OK, dt, f.Method, len(f.Outliers))
	}

	got := c.CompressWith(vals, dt, th)
	if got.OK != want.OK || got.Method != want.Method || got.Type != want.Type || got.Bias != want.Bias ||
		got.SizeLines != want.SizeLines || math.Float64bits(got.AvgError) != math.Float64bits(want.AvgError) ||
		got.Summary != want.Summary || got.Bitmap != want.Bitmap || !slices.Equal(got.Outliers, want.Outliers) {
		t.Fatalf("CompressWith result differs from the reference:\n got %+v\nwant %+v", got, want)
	}
	if got.Reconstructed != want.Reconstructed {
		t.Fatal("CompressWith Reconstructed differs from the reference")
	}
	if dec := compress.Decompress(&got.Summary, &got.Bitmap, got.Outliers, got.Method, got.Bias, dt); dec != got.Reconstructed {
		t.Fatalf("Reconstructed != Decompress(parts) (OK %v)", got.OK)
	}
	return want
}

// diff64 is diff32 for 128-double blocks.
func diff64(t *testing.T, vals *[compress.BlockValues64]uint64, th compress.Thresholds) bool {
	t.Helper()
	want := compress.ReferenceCompress64(vals, th)
	c := compress.NewCompressor(th)

	f := c.CompressFast64With(vals, th)
	if f.OK != want.OK || f.Bias != want.Bias || f.SizeLines != want.SizeLines ||
		math.Float64bits(f.AvgError) != math.Float64bits(want.AvgError) {
		t.Fatalf("fast64 (OK %v, bias %d, %d lines, err %v) != reference (OK %v, bias %d, %d lines, err %v)",
			f.OK, f.Bias, f.SizeLines, f.AvgError, want.OK, want.Bias, want.SizeLines, want.AvgError)
	}
	if *f.Summary != want.Summary || *f.Bitmap != want.Bitmap || !slices.Equal(f.Outliers, want.Outliers) {
		t.Fatalf("fast64 summary/bitmap/outliers differ from the reference (%d vs %d outliers)",
			len(f.Outliers), len(want.Outliers))
	}

	got := c.Compress64With(vals, th)
	if got.OK != want.OK || got.Bias != want.Bias || got.SizeLines != want.SizeLines ||
		math.Float64bits(got.AvgError) != math.Float64bits(want.AvgError) ||
		got.Summary != want.Summary || got.Bitmap != want.Bitmap || !slices.Equal(got.Outliers, want.Outliers) {
		t.Fatalf("Compress64With result differs from the reference:\n got %+v\nwant %+v", got, want)
	}
	if got.Reconstructed != want.Reconstructed {
		t.Fatal("Compress64With Reconstructed differs from the reference")
	}
	if dec := compress.Decompress64(&got.Summary, &got.Bitmap, got.Outliers, got.Bias); dec != got.Reconstructed {
		t.Fatalf("Reconstructed != Decompress64(parts) (OK %v)", got.OK)
	}
	return want.OK
}

// float32Block / fixed32Block / float64Block cut block i out of a
// generated series. Fixed32 data is the series in Q23.8.
func float32Block(vals []float64, i int) *[compress.BlockValues]uint32 {
	var blk [compress.BlockValues]uint32
	for j := range blk {
		blk[j] = math.Float32bits(float32(vals[i*compress.BlockValues+j]))
	}
	return &blk
}

func fixed32Block(vals []float64, i int) *[compress.BlockValues]uint32 {
	var blk [compress.BlockValues]uint32
	for j := range blk {
		blk[j] = uint32(int32(vals[i*compress.BlockValues+j] * 256))
	}
	return &blk
}

func float64Block(vals []float64, i int) *[compress.BlockValues64]uint64 {
	var blk [compress.BlockValues64]uint64
	for j := range blk {
		blk[j] = math.Float64bits(vals[i*compress.BlockValues64+j])
	}
	return &blk
}

func TestCompressDifferential(t *testing.T) {
	const blocks = 6
	var ok, failed int
	// The rebuilds diff32 checks, by kind of compressed block.
	rebuilds := map[string]int{}
	count := func(r compress.Result, v compress.VariantMask) {
		if !r.OK {
			failed++
			return
		}
		ok++
		outliers := "no-outliers"
		if len(r.Outliers) > 0 {
			outliers = "outliers"
		}
		rebuilds[fmt.Sprintf("%v/%v/%s", r.Type, r.Method, outliers)]++
		if v == compress.VariantBoth && r.Method == compress.Method1D {
			rebuilds[fmt.Sprintf("%v/first-attempt-won", r.Type)]++
		}
	}
	for _, dist := range workloads.Distributions() {
		vals, err := workloads.GenFloat64(dist, blocks*compress.BlockValues, 7)
		if err != nil {
			t.Fatal(err)
		}
		for ti, th := range diffThresholds {
			for _, v := range diffVariants {
				t.Run(fmt.Sprintf("%s/t%d/v%d", dist, ti, v), func(t *testing.T) {
					for i := 0; i < blocks; i++ {
						count(diff32(t, float32Block(vals, i), compress.Float32, th, v), v)
						count(diff32(t, fixed32Block(vals, i), compress.Fixed32, th, v), v)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/t%d/fp64", dist, ti), func(t *testing.T) {
				for i := 0; i < 2*blocks; i++ {
					if diff64(t, float64Block(vals, i), th) {
						ok++
					} else {
						failed++
					}
				}
			})
		}
	}
	// The harness must see both outcomes, or it proves half of what it says.
	if ok == 0 || failed == 0 {
		t.Fatalf("%d blocks compressed, %d did not: need both", ok, failed)
	}
	// The rebuild must be seen from both datatypes, both winners, with
	// and without outliers, and where the winner is not the last attempt
	// (its reconstruction no longer in scratch).
	for _, dt := range []compress.DataType{compress.Float32, compress.Fixed32} {
		for _, m := range []compress.Method{compress.Method1D, compress.Method2D} {
			for _, o := range []string{"outliers", "no-outliers"} {
				if k := fmt.Sprintf("%v/%v/%s", dt, m, o); rebuilds[k] == 0 {
					t.Errorf("no compressed %s block rebuilt", k)
				}
			}
		}
		if k := fmt.Sprintf("%v/first-attempt-won", dt); rebuilds[k] == 0 {
			t.Errorf("no rebuild of %s", k)
		}
	}
}

// TestCompressDifferentialSpecials pins the comparator's special cases
// (NaN/Inf bit-exact, zeros and denormals flush, sign and exponent
// mismatches) and the all-outlier extreme, where the winner is chosen
// among failed attempts.
func TestCompressDifferentialSpecials(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(i int) float64{
		"all-nan":      func(int) float64 { return nan },
		"all-inf":      func(int) float64 { return inf },
		"all-zero":     func(int) float64 { return 0 },
		"all-neg-zero": func(int) float64 { return math.Copysign(0, -1) },
		"sign-flips":   func(i int) float64 { return float64(1 - 2*(i&1)) },
		"all-outlier": func(i int) float64 {
			if i&1 == 0 {
				return 1
			}
			return 1e20
		},
		"specials-mix": func(i int) float64 {
			return []float64{nan, inf, -inf, 0, math.Copysign(0, -1), 1, -1, 3e38, -3e38, 1e-30}[i%10]
		},
		"smooth-with-nan": func(i int) float64 {
			if i%50 == 49 {
				return nan
			}
			return 100 + 0.01*float64(i)
		},
		"tiny": func(i int) float64 { return 1e-30 * (1 + 0.001*float64(i)) },
		"huge": func(i int) float64 { return 1e30 * (1 + 0.001*float64(i)) },
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			vals := make([]float64, compress.BlockValues)
			for i := range vals {
				vals[i] = gen(i)
			}
			for _, th := range diffThresholds {
				for _, v := range diffVariants {
					diff32(t, float32Block(vals, 0), compress.Float32, th, v)
					diff32(t, fixed32Block(vals, 0), compress.Fixed32, th, v)
				}
				diff64(t, float64Block(vals, 0), th)
				diff64(t, float64Block(vals, 1), th)
			}
		})
	}
	// Denormals do not survive the float64 → float32 generators above.
	t.Run("denormals", func(t *testing.T) {
		var b32 [compress.BlockValues]uint32
		for i := range b32 {
			b32[i] = uint32(1+i) | uint32(i&1)<<31
		}
		var b64 [compress.BlockValues64]uint64
		for i := range b64 {
			b64[i] = uint64(1+i) | uint64(i&1)<<63
		}
		for _, th := range diffThresholds {
			for _, v := range diffVariants {
				diff32(t, &b32, compress.Float32, th, v)
			}
			diff64(t, &b64, th)
		}
	})
}

// tile32 / tile64 build a block by tiling fuzz bytes as little-endian
// values.
func tile32(data []byte) *[compress.BlockValues]uint32 {
	var blk [compress.BlockValues]uint32
	for i := range blk {
		for j := 0; j < 4 && len(data) > 0; j++ {
			blk[i] |= uint32(data[(i*4+j)%len(data)]) << (8 * j)
		}
	}
	return &blk
}

func tile64(data []byte) *[compress.BlockValues64]uint64 {
	var blk [compress.BlockValues64]uint64
	for i := range blk {
		for j := 0; j < 8 && len(data) > 0; j++ {
			blk[i] |= uint64(data[(i*8+j)%len(data)]) << (8 * j)
		}
	}
	return &blk
}

// fuzzThresholds maps a fuzz byte onto T1 in [1/4, 1/1024], T2 = T1/2.
func fuzzThresholds(shift uint8) compress.Thresholds {
	t1 := 1.0 / float64(uint32(4)<<(shift%9))
	return compress.Thresholds{T1: t1, T2: t1 / 2}
}

func FuzzCompressDifferential(f *testing.F) {
	smooth := make([]byte, 4*compress.BlockValues)
	for i := 0; i < compress.BlockValues; i++ {
		b := math.Float32bits(100 + 0.01*float32(i))
		smooth[4*i], smooth[4*i+1], smooth[4*i+2], smooth[4*i+3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
	}
	f.Add(smooth, false, uint8(3), uint8(3))
	f.Add(smooth, true, uint8(1), uint8(1))
	f.Add([]byte{0, 0, 0, 0}, false, uint8(0), uint8(2))
	f.Add([]byte{0xFF, 0xFF, 0x80, 0x7F, 1, 2, 3, 4}, false, uint8(3), uint8(3)) // NaN mixed in
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0}, true, uint8(5), uint8(3))        // small integers
	f.Add([]byte{0, 0, 0x80, 0x3F, 0, 0, 0x80, 0xBF}, false, uint8(2), uint8(1)) // ±1
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0x80}, false, uint8(2), uint8(3))          // ±denormal
	f.Fuzz(func(t *testing.T, data []byte, fixedPoint bool, t1Shift, variants uint8) {
		dt := compress.Float32
		if fixedPoint {
			dt = compress.Fixed32
		}
		v := compress.VariantMask(variants) & compress.VariantBoth
		if v == 0 {
			v = compress.VariantBoth
		}
		diff32(t, tile32(data), dt, fuzzThresholds(t1Shift), v)
	})
}

func FuzzCompressDifferential64(f *testing.F) {
	smooth := make([]byte, 8*compress.BlockValues64)
	for i := 0; i < compress.BlockValues64; i++ {
		b := math.Float64bits(100 + 0.01*float64(i))
		for j := 0; j < 8; j++ {
			smooth[8*i+j] = byte(b >> (8 * j))
		}
	}
	f.Add(smooth, uint8(3))
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(3)) // NaN mixed in
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80}, uint8(2))    // ±denormal
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0, 0, 0, 0, 0, 0, 0xF0, 0xBF}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, t1Shift uint8) {
		diff64(t, tile64(data), fuzzThresholds(t1Shift))
	})
}
