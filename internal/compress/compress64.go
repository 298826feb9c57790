package compress

import (
	"avr/internal/fixed"
	"avr/internal/simd"
)

// 64-bit block geometry: one 1 KiB memory block holds 128 doubles; the
// 64 B summary then holds 8 sub-block averages (still a 16:1 ratio).
// This implements the paper's §3.3 note that the compressor "can be
// easily extended to support other representations" — the simulator and
// the paper's experiments use the 32-bit path; this path serves the
// standalone double-precision codec.
const (
	BlockValues64   = BlockBytes / 8    // 128
	SummaryValues64 = LineBytes / 8     // 8
	SubBlockSize64  = SubBlockSize      // 16 values averaged per summary value
	BitmapBytes64   = BlockValues64 / 8 // 16 B
)

// Result64 is the outcome of a 64-bit compression attempt.
type Result64 struct {
	OK            bool
	Bias          int16
	Summary       [SummaryValues64]int64
	Bitmap        [BitmapBytes64]byte
	Outliers      []uint64
	SizeLines     int
	AvgError      float64
	Reconstructed [BlockValues64]uint64
}

// CompressedLines64 is the size in cachelines of a 64-bit compressed
// block with k outliers.
func CompressedLines64(k int) int {
	if k == 0 {
		return 1
	}
	return 1 + (BitmapBytes64+8*k+LineBytes-1)/LineBytes
}

// Compress64 attempts to compress a 128-double block (1D downsampling;
// the 2D variant does not apply to the non-square 64-bit geometry). Only
// tests call it, the codec's reference oracle in package avr among them,
// which a test file here could not reach.
func (c *Compressor) Compress64(vals *[BlockValues64]uint64) Result64 {
	return c.Compress64With(vals, c.thresholds)
}

// Compress64With is Compress64 with explicit thresholds: the flat-pass
// datapath (CompressFast64With) with the result copied out of
// compressor scratch.
func (c *Compressor) Compress64With(vals *[BlockValues64]uint64, th Thresholds) Result64 {
	f := c.CompressFast64With(vals, th)
	r := Result64{
		OK: f.OK, Bias: f.Bias, Summary: *f.Summary, Bitmap: *f.Bitmap,
		SizeLines: f.SizeLines, AvgError: f.AvgError,
	}
	if len(f.Outliers) > 0 {
		r.Outliers = append([]uint64(nil), f.Outliers...)
	}
	r.Reconstructed = Decompress64(&r.Summary, &r.Bitmap, r.Outliers, r.Bias)
	return r
}

// Decompress64 reconstructs a 128-double block from its parts.
func Decompress64(summary *[SummaryValues64]int64, bitmap *[BitmapBytes64]byte, outliers []uint64, bias int16) [BlockValues64]uint64 {
	var rec [BlockValues64]int64
	interpolate64(summary, &rec)
	var out [BlockValues64]uint64
	oi := 0
	for i := 0; i < BlockValues64; i++ {
		if bitmap != nil && bitmap[i>>3]&(1<<(i&7)) != 0 {
			if oi < len(outliers) {
				out[i] = outliers[oi]
				oi++
			}
			continue
		}
		out[i] = fixed.RemoveBias64(fixed.FixedToFloat64(rec[i]), bias)
	}
	return out
}

// MantissaBits64 returns N for the 52-bit mantissa comparator such that
// a mantissa difference below the Nth MSbit keeps relative error ≤ T1.
func (t Thresholds) MantissaBits64() int {
	if t.T1 <= 0 {
		return 52
	}
	n := mantissaBitsFor(t.T1)
	if n > 52 {
		n = 52
	}
	return n
}

// interpolate64 reconstructs 128 values from 8 run averages by linear
// interpolation between run centres (centre of run i at 16i+7.5; ×2 grid
// centres at 32i+15).
func interpolate64(sum *[SummaryValues64]int64, out *[BlockValues64]int64) {
	if simd.Enabled() {
		simd.Interpolate64(sum, out)
		return
	}
	// p = 2j-15 clamps below centre 0 for j ≤ 7 and above centre 7 for
	// j ≥ 120; segment s = (2j-15)>>5 covers exactly j = 16s+8 .. 16s+23
	// with odd fracs 1,3,…,31. The truncating /32 step is hoisted per
	// segment — it depends only on the endpoints, so each output value is
	// computed by the same expression as the position-by-position form.
	for j := 0; j < 8; j++ {
		out[j] = sum[0]
	}
	j := 8
	for s := 0; s < SummaryValues64-1; s++ {
		a := sum[s]
		step := (sum[s+1] - a) / 32
		acc := a + step // a + step*frac is exactly linear in frac
		for k := 0; k < 16; k++ {
			out[j] = acc
			acc += 2 * step
			j++
		}
	}
	for ; j < BlockValues64; j++ {
		out[j] = sum[SummaryValues64-1]
	}
}
