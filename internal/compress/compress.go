// Package compress implements the AVR downsampling compressor and
// decompressor (ICPP'19 §3.3, Figs. 4–5).
//
// A memory block of 16 cachelines holds 256 32-bit values. Compression
// divides the block into sub-blocks of 16 values and replaces each
// sub-block with its average, yielding a 16-value (one cacheline) summary:
// a 16:1 ratio before outliers. Two placement variants are attempted in
// parallel — 1D (linear runs) and 2D (the block as a 16×16 grid with 4×4
// sub-blocks) — and the better result wins. Values whose reconstruction
// violates the per-value error threshold T1 are stored explicitly as
// outliers together with a 256-bit location bitmap. A compression attempt
// fails when the average error of non-outliers exceeds T2 or the
// compressed block does not fit in 8 cachelines.
//
// The datapath is hardware-faithful: floats are exponent-biased, converted
// to Q15.16 fixed point, averaged and interpolated with integer
// arithmetic, converted back and unbiased. The error check compares sign
// and exponent fields for equality and bounds the mantissa difference
// below the Nth most significant bit (error < 1/2^N), as the paper's
// single-cycle comparator does.
package compress

import (
	"fmt"
	"math"

	"avr/internal/fixed"
	"avr/internal/simd"
)

// Geometry of an AVR memory block.
const (
	LineBytes     = 64                         // cacheline size
	BlockLines    = 16                         // cachelines per memory block
	BlockBytes    = BlockLines * LineBytes     // 1 KiB
	ValuesPerLine = LineBytes / 4              // 32-bit values per cacheline
	BlockValues   = BlockLines * ValuesPerLine // 256
	SubBlockSize  = 16                         // values averaged into one summary value
	SummaryValues = BlockValues / SubBlockSize // 16, exactly one cacheline
	// MaxCompressedLines is the largest compressed size still considered a
	// success (2:1 worst case, §3.1).
	MaxCompressedLines = 8
	// BitmapBytes is the outlier bitmap size: one bit per 32-bit value.
	BitmapBytes = BlockValues / 8 // 32 B, half a cacheline
)

// Pipeline latencies in processor cycles, from the paper's synthesis
// results (§3.3): biasing 4, float↔fixed 1 each, downsampling 15,
// reconstruction 10, error check + outlier compaction 16+16 overlapped,
// unbias 1. Totals as reported. Only DecompressLatency is charged: the
// model compresses on eviction, off the demand path, so CompressLatency
// has no caller and stays as the paper's figure its test pins.
const (
	CompressLatency   = 49
	DecompressLatency = 12
)

// DataType identifies the value representation of an approximable region.
type DataType uint8

const (
	// Float32 is IEEE-754 single precision.
	Float32 DataType = iota
	// Fixed32 is 32-bit two's-complement fixed point (integer data is the
	// degenerate case with zero fraction bits).
	Fixed32
)

// String returns the conventional name of the data type.
func (d DataType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Fixed32:
		return "fixed32"
	}
	return fmt.Sprintf("DataType(%d)", uint8(d))
}

// Method identifies the downsampling placement variant (2 bits in the CMT
// together with the data type).
type Method uint8

const (
	// Method1D treats the block as a linear array of 16 runs of 16 values.
	Method1D Method = iota
	// Method2D treats the block as a 16×16 grid of 4×4 sub-blocks.
	Method2D
)

// String returns the variant name.
func (m Method) String() string {
	switch m {
	case Method1D:
		return "1D"
	case Method2D:
		return "2D"
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// VariantMask selects which placement variants the compressor attempts.
// The shipped hardware runs both in parallel; the ablation experiments
// restrict it.
type VariantMask uint8

const (
	Variant1D   VariantMask = 1 << iota // attempt 1D downsampling
	Variant2D                           // attempt 2D downsampling
	VariantBoth = Variant1D | Variant2D
)

// Thresholds holds the two error knobs exposed by AVR (§3.3): T1 bounds
// the relative error of each individual value, T2 the average relative
// error of the non-outlier values of a block. The paper's experiments use
// T1 = 2·T2.
type Thresholds struct {
	T1 float64
	T2 float64
}

// DefaultThresholds returns the threshold setting used for the paper-shape
// experiments: T1 = 1/32 (≈3.1% per value), T2 = T1/2.
func DefaultThresholds() Thresholds { return Thresholds{T1: 1.0 / 32, T2: 1.0 / 64} }

// MantissaBits returns N such that the per-value check "mantissa
// difference below the Nth MSbit" guarantees relative error < 1/2^N ≤ T1.
func (t Thresholds) MantissaBits() int {
	if t.T1 <= 0 {
		return 23
	}
	n := mantissaBitsFor(t.T1)
	if n > 23 {
		n = 23
	}
	return n
}

// mantissaBitsFor returns the smallest N with 1/2^N ≤ t1 (at least 1).
func mantissaBitsFor(t1 float64) int {
	n := int(math.Ceil(-math.Log2(t1)))
	if n < 1 {
		n = 1
	}
	return n
}

// Result is the outcome of one compression attempt on a block.
type Result struct {
	// OK reports whether compression succeeded (≤ MaxCompressedLines and
	// average error ≤ T2). When false the block must be stored
	// uncompressed and only AvgError/Outliers are meaningful diagnostics.
	OK bool
	// Method is the winning placement variant.
	Method Method
	// Type echoes the data type compressed.
	Type DataType
	// Bias is the exponent bias applied before fixed-point conversion
	// (always 0 for Fixed32 and for blocks where biasing was skipped).
	Bias int8
	// Summary holds the 16 sub-block averages in Q15.16 fixed point.
	Summary [SummaryValues]int32
	// Bitmap marks outlier positions, one bit per value, LSB-first within
	// each byte. Only meaningful when NumOutliers > 0.
	Bitmap [BitmapBytes]byte
	// Outliers are the exact 32-bit patterns of outlier values in block
	// order.
	Outliers []uint32
	// SizeLines is the compressed size in cachelines (1..8) when OK.
	SizeLines int
	// AvgError is the average relative error across non-outlier values.
	AvgError float64
	// Reconstructed is the full approximate block as the processor will
	// see it after decompression: interpolated values with exact outliers
	// overlaid. Valid whenever the attempt produced a summary (even on
	// failure, for diagnostics).
	Reconstructed [BlockValues]uint32
}

// CompressedLines computes the size in cachelines of a compressed block
// with k outliers: one summary line plus, when outliers exist, the 32 B
// bitmap and 4 B per outlier packed into whole lines.
func CompressedLines(k int) int {
	if k == 0 {
		return 1
	}
	return 1 + (BitmapBytes+4*k+LineBytes-1)/LineBytes
}

// Compressor performs block compression and decompression. It is
// stateless apart from its configuration and scratch buffers, so one
// instance per simulated AVR module suffices; it is not safe for
// concurrent use.
type Compressor struct {
	thresholds Thresholds
	variants   VariantMask

	// Memoized MantissaBits results — the mapping is a pure function of
	// T1 but costs a Log2, and the hot path needs it every block.
	mbT1, mb64T1 float64
	mbN, mb64N   int
	mbOK, mb64OK bool

	// scratch buffers reused across calls to avoid per-block allocation
	// (fast32.go / fast64.go). The summary/bitmap sets ping-pong between
	// the current attempt and the best one so far; out holds the winner's
	// outliers, compacted once the attempts are decided. CompressFast
	// returns a FastResult that aliases the winner, valid until the next
	// call.
	fx         [BlockValues]int32
	recon      [BlockValues]int32
	out        [BlockValues]uint32
	sumA, sumB [SummaryValues]int32
	bmA, bmB   [BitmapBytes]byte

	fx64    [BlockValues64]int64
	recon64 [BlockValues64]int64
	sum64   [SummaryValues64]int64
	bm64    [BitmapBytes64]byte
	out64   [BlockValues64]uint64

	// Where DecompressBits32/DecompressInto64 reconstruct a partial last
	// record before copying its leading values out.
	tail   [BlockValues]uint32
	tail64 [BlockValues64]uint64
}

// NewCompressor returns a compressor with the given error thresholds
// attempting both placement variants.
func NewCompressor(t Thresholds) *Compressor {
	return &Compressor{thresholds: t, variants: VariantBoth}
}

// NewCompressorVariants returns a compressor restricted to the given
// placement variants (used by the ablation experiments).
func NewCompressorVariants(t Thresholds, v VariantMask) *Compressor {
	if v == 0 {
		v = VariantBoth
	}
	return &Compressor{thresholds: t, variants: v}
}

// mantissaBits32 returns th.MantissaBits() through a one-entry memo.
func (c *Compressor) mantissaBits32(th Thresholds) int {
	if !c.mbOK || th.T1 != c.mbT1 {
		c.mbT1, c.mbN, c.mbOK = th.T1, th.MantissaBits(), true
	}
	return c.mbN
}

// mantissaBits64 returns th.MantissaBits64() through a one-entry memo.
func (c *Compressor) mantissaBits64(th Thresholds) int {
	if !c.mb64OK || th.T1 != c.mb64T1 {
		c.mb64T1, c.mb64N, c.mb64OK = th.T1, th.MantissaBits64(), true
	}
	return c.mb64N
}

// Thresholds returns the configured error thresholds.
func (c *Compressor) Thresholds() Thresholds { return c.thresholds }

// Compress attempts to compress a 256-value block of the given data type
// under the compressor's configured thresholds. vals holds the raw
// 32-bit patterns (float bits for Float32, two's complement for Fixed32).
func (c *Compressor) Compress(vals *[BlockValues]uint32, dt DataType) Result {
	return c.CompressWith(vals, dt, c.thresholds)
}

// CompressWith is Compress with explicit error thresholds, supporting the
// paper's per-region threshold extension (§3.1: a threshold field per
// allocated memory region in the page table). It runs the flat-pass
// datapath (CompressFastWith) and copies the winner out of compressor
// scratch, so a returned Result never aliases compressor state.
func (c *Compressor) CompressWith(vals *[BlockValues]uint32, dt DataType, th Thresholds) Result {
	f := c.CompressFastWith(vals, dt, th)
	r := Result{
		OK: f.OK, Method: f.Method, Type: dt, Bias: f.Bias,
		Summary: *f.Summary, Bitmap: *f.Bitmap,
		SizeLines: f.SizeLines, AvgError: f.AvgError,
	}
	if len(f.Outliers) > 0 {
		r.Outliers = append([]uint32(nil), f.Outliers...)
	}
	r.Reconstructed = Decompress(&r.Summary, &r.Bitmap, r.Outliers, r.Method, r.Bias, dt)
	return r
}

// downsample computes the 16 sub-block averages for the given placement.
func downsample(fx *[BlockValues]int32, sum *[SummaryValues]int32, m Method) {
	if simd.Enabled() {
		switch m {
		case Method1D:
			simd.Downsample1D(fx, sum)
		case Method2D:
			simd.Downsample2D(fx, sum)
		}
		return
	}
	switch m {
	case Method1D:
		for s := 0; s < SummaryValues; s++ {
			sum[s] = fixed.Average16(fx[s*SubBlockSize : (s+1)*SubBlockSize])
		}
	case Method2D:
		// 16×16 grid, row-major; sub-block (R,C) covers rows 4R..4R+3,
		// cols 4C..4C+3; summary index R*4+C. Summed in place — integer
		// addition is exact, so the order change from the gather-then-
		// Average16 formulation cannot alter the result.
		for R := 0; R < 4; R++ {
			for C := 0; C < 4; C++ {
				var s int64
				base := 64*R + 4*C
				for r := 0; r < 4; r++ {
					row := fx[base+16*r : base+16*r+4]
					s += int64(row[0]) + int64(row[1]) + int64(row[2]) + int64(row[3])
				}
				sum[R*4+C] = int32(s >> 4)
			}
		}
	}
}

// interpolate reconstructs 256 fixed-point values from the 16 summary
// values: linear interpolation between run centres for 1D, bilinear
// between sub-block centres for 2D, clamping beyond the outermost centres
// ("the average values are distributed evenly", §3.3).
func interpolate(sum *[SummaryValues]int32, out *[BlockValues]int32, m Method) {
	if simd.Enabled() {
		switch m {
		case Method1D:
			simd.Interpolate1D(sum, out)
		case Method2D:
			simd.Interpolate2D(sum, out)
		}
		return
	}
	switch m {
	case Method1D:
		// Run i's centre sits at position 16i+7.5; work on a ×2 grid so
		// centres fall on integers (32i+15) and frac is in 32nds. The
		// position p = 2j-15 clamps below centre 0 for j ≤ 7 and above
		// centre 15 for j ≥ 248; in between, segment s = (2j-15)>>5 covers
		// exactly j = 16s+8 .. 16s+23 with odd fracs 1,3,…,31, so the loop
		// is unrolled into clamp-free runs (same arithmetic per value as
		// the position-by-position form, hence bit-identical).
		for j := 0; j < 8; j++ {
			out[j] = sum[0]
		}
		j := 8
		for s := 0; s < SummaryValues-1; s++ {
			a := int64(sum[s])
			d := int64(sum[s+1]) - a
			// out = a + (d*frac)>>5 for frac = 1,3,…,31, kept as one
			// running accumulator acc = a<<5 + d*frac: a<<5 is an exact
			// multiple of 32, so acc>>5 floors to the same value, and
			// stepping acc by 2d walks frac exactly.
			acc := a<<5 + d
			for k := 0; k < 16; k++ {
				out[j] = int32(acc >> 5)
				acc += 2 * d
				j++
			}
		}
		for ; j < BlockValues; j++ {
			out[j] = sum[SummaryValues-1]
		}
	case Method2D:
		// Sub-block (R,C) centre at (4R+1.5, 4C+1.5); ×2 grid centres at
		// 8R+3 with spacing 8; frac in 8ths. Bilinear interpolation is
		// separable, so interpolate each summary row horizontally once
		// (rowVals[R][col] is exactly the reference's top/bot term for
		// that row) and then blend rows vertically — 4×16 + 16×16 lerps
		// instead of 3 per output value, same integer math throughout.
		// Columns clamp to C0=0 for col ≤ 1 and C0=3 for col ≥ 14; rows
		// likewise (axis position p = 2·idx-3, base index p>>3, frac p&7).
		var rowVals [4][16]int64
		for R := 0; R < 4; R++ {
			rv := &rowVals[R]
			a0 := int64(sum[R*4])
			rv[0], rv[1] = a0, a0
			j := 2
			for C := 0; C < 3; C++ {
				a := int64(sum[R*4+C])
				d := int64(sum[R*4+C+1]) - a
				acc := a<<3 + d // same accumulator form as the 1D loop
				for k := 0; k < 4; k++ {
					rv[j] = acc >> 3
					acc += 2 * d
					j++
				}
			}
			a3 := int64(sum[R*4+3])
			rv[14], rv[15] = a3, a3
		}
		for col := 0; col < 16; col++ {
			out[col] = int32(rowVals[0][col])
			out[16+col] = int32(rowVals[0][col])
			out[14*16+col] = int32(rowVals[3][col])
			out[15*16+col] = int32(rowVals[3][col])
		}
		r := 2
		for R := 0; R < 3; R++ {
			top, bot := &rowVals[R], &rowVals[R+1]
			var acc, step [16]int64
			for col := 0; col < 16; col++ {
				t := top[col]
				d := bot[col] - t
				acc[col] = t<<3 + d
				step[col] = 2 * d
			}
			for fr := 0; fr < 4; fr++ {
				o := out[r*16 : r*16+16]
				for col := 0; col < 16; col++ {
					o[col] = int32(acc[col] >> 3)
					acc[col] += step[col]
				}
				r++
			}
		}
	}
}

// Decompress reconstructs a block from its compressed representation:
// summary averages, outlier bitmap and packed outliers (nil when the block
// compressed without outliers). It returns the 256 bit patterns the
// processor observes. It is the scalar statement of the decompressor,
// one value at a time: the oracle the tests hold the reconstruct kernels
// to (DecompressBits32, DecompressFast), and what CompressWith's Result
// and bench's decompress micro-loop call. The simulator and the codec
// run the kernels.
func Decompress(summary *[SummaryValues]int32, bitmap *[BitmapBytes]byte, outliers []uint32, m Method, bias int8, dt DataType) [BlockValues]uint32 {
	var rec [BlockValues]int32
	interpolate(summary, &rec, m)
	var out [BlockValues]uint32
	oi := 0
	for i := 0; i < BlockValues; i++ {
		if bitmap != nil && bitmap[i>>3]&(1<<(i&7)) != 0 {
			if oi < len(outliers) {
				out[i] = outliers[oi]
				oi++
			}
			continue
		}
		if dt == Float32 {
			out[i] = fixed.RemoveBias(fixed.FixedToFloat(rec[i]), bias)
		} else {
			out[i] = uint32(rec[i])
		}
	}
	return out
}
