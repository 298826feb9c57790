package compress

import (
	"encoding/binary"
	"math"
	"math/bits"

	"avr/internal/fixed"
	"avr/internal/simd"
)

// FastResult64 describes one fast-path 64-bit block compression.
// Summary, Bitmap and Outliers alias compressor scratch, valid until the
// next compression call on the same Compressor.
type FastResult64 struct {
	OK        bool
	Bias      int16
	SizeLines int
	AvgError  float64
	Summary   *[SummaryValues64]int64
	Bitmap    *[BitmapBytes64]byte
	Outliers  []uint64
}

// CompressFast64 compresses a 128-double block through the flat passes
// (1D downsampling; the 2D variant does not apply to the non-square
// 64-bit geometry).
func (c *Compressor) CompressFast64(vals *[BlockValues64]uint64) FastResult64 {
	return c.CompressFast64With(vals, c.thresholds)
}

// CompressFast64With is CompressFast64 with explicit thresholds.
func (c *Compressor) CompressFast64With(vals *[BlockValues64]uint64, th Thresholds) FastResult64 {
	bias, _ := fixed.ChooseBias64(vals[:])
	fixed.FloatsToFixed64(c.fx64[:], vals[:], bias)
	for s := 0; s < SummaryValues64; s++ {
		c.sum64[s] = fixed.Average16x64(c.fx64[s*SubBlockSize64 : (s+1)*SubBlockSize64])
	}
	interpolate64(&c.sum64, &c.recon64)

	nOut, nonOutliers, errSum := errCheckRecon64(vals, &c.recon64, bias, c.mantissaBits64(th), &c.bm64)

	r := FastResult64{Bias: bias, Summary: &c.sum64, Bitmap: &c.bm64}
	if nOut > 0 {
		r.Outliers = c.out64[:nOut]
		compactOutliers64(vals, &c.bm64, r.Outliers)
	}
	if nonOutliers > 0 {
		r.AvgError = errSum / float64(nonOutliers)
	}
	r.SizeLines = CompressedLines64(nOut)
	r.OK = r.SizeLines <= MaxCompressedLines && r.AvgError <= th.T2
	if !r.OK && r.SizeLines > MaxCompressedLines {
		r.SizeLines = BlockLines
	}
	return r
}

// compactOutliers64 is compactOutliers32 for 128-double blocks.
func compactOutliers64(vals *[BlockValues64]uint64, bm *[BitmapBytes64]byte, out []uint64) {
	k := 0
	for w := 0; w < BitmapBytes64/8; w++ {
		for v := binary.LittleEndian.Uint64(bm[w*8:]); v != 0; v &= v - 1 {
			out[k] = vals[w<<6+bits.TrailingZeros64(v)]
			k++
		}
	}
}

// errCheckRecon64 fuses the reconstruction convert sweep
// (fixed.FixedToFloats64) with the reference comparator (valueError64 in
// reference_test.go) over the whole block, setting the bitmap, counting
// outliers and accumulating non-outlier error in index order like the
// reference. The branch structure mirrors errCheckRecon32: see the
// discussion there for why it decides identically to the reference
// switch.
//
// With AVX-512 the kernel (simd.ErrCheckRecon64) classifies lane for
// lane and returns the integer sum Σd of the accepted mantissa deltas.
// The loop below adds float64(d)/2^52 in index order: every term and
// every partial sum is a multiple of 2^-52 no larger than Σd·2^-52, so
// while Σd < 2^53 each addition is exact in float64 and the loop's sum is
// float64(Σd)/2^52 bit for bit. Unlike fp32 (256 deltas below 2^23) the
// bound can be crossed — 128 deltas each just under lim = 2^(52-n) reach
// 2^53 for n ≤ 5, the default t1 = 1/32 included — and then a partial
// sum may round, so such a block runs the loop instead.
func errCheckRecon64(vals *[BlockValues64]uint64, recon *[BlockValues64]int64, bias int16, n int, bm *[BitmapBytes64]byte) (nOut, nonOutliers int, errSum float64) {
	lim := uint64(1) << (52 - n) // d >= lim  ⇔  bits.Len64(d) > 52-n
	nb := -int(bias)
	if simd.Enabled() {
		if dSum := simd.ErrCheckRecon64(vals, recon, bm, int64(nb), lim); dSum < 1<<53 {
			nOut = countOutliers(bm[:])
			return nOut, BlockValues64 - nOut, float64(dSum) / (1 << 52)
		}
	}
	clear(bm[:])
	const signExpMask = uint64(0xFFF) << 52
	const expMask = uint64(0x7FF) << 52
	const mantMask = uint64(1)<<52 - 1
	for i := 0; i < BlockValues64; i++ {
		// Inline fixed.FixedToFloats64: convert and un-bias one value.
		a := math.Float64bits(float64(recon[i]) / (1 << fixed.FracBits64))
		if nb != 0 {
			if e := int(a>>52) & 0x7FF; e != 0 && e != 0x7FF {
				a = a&^expMask | uint64(e+nb)<<52
			}
		}
		o := vals[i]
		if (o^a)&signExpMask == 0 {
			// Same sign and exponent.
			if eo := o >> 52 & 0x7FF; eo-1 < 0x7FE {
				// Both normal: the reference's mantissa-delta case.
				mo, ma := o&mantMask, a&mantMask
				d := mo - ma
				if ma > mo {
					d = ma - mo
				}
				if d < lim {
					errSum += float64(d) / (1 << 52)
					nonOutliers++
					continue
				}
			} else if o == a || eo == 0 {
				// Specials match bit-exactly, or both are ±denormal/zero.
				nonOutliers++
				continue
			}
		} else if o&expMask == 0 && a&expMask == 0 {
			// Denormal/zero original, denormal/zero approximation of the
			// opposite sign: accepted with zero error.
			nonOutliers++
			continue
		}
		bm[i>>3] |= 1 << (i & 7)
		nOut++
	}
	return nOut, nonOutliers, errSum
}

// ReconstructFixed64 is ReconstructFixed32 for 128-double blocks: the
// Q31.32 reconstructions, value i being x·2^-(fixed.FracBits64+bias).
func (c *Compressor) ReconstructFixed64(summary *[SummaryValues64]int64) *[BlockValues64]int64 {
	interpolate64(summary, &c.recon64)
	return &c.recon64
}

// DecompressInto64 is DecompressBits32 for 128-double blocks:
// interpolate, then the fixed→float-bits pass through
// simd.FixedToFloatsBits64 (both AVX-512; interpolate64's scalar loop and
// fixed.FixedToFloats64, which they replicate lane for lane, elsewhere),
// then the outlier overlay.
// bitmap and outlierBytes may be nil/empty; outlierBytes holds packed
// little-endian doubles covering every set bitmap bit. A full block is
// written straight into out (callers alias it over a []float64
// destination); a partial last record, len(out) < BlockValues64, goes
// through scratch.
func (c *Compressor) DecompressInto64(out []uint64, summary *[SummaryValues64]int64, bitmap, outlierBytes []byte, bias int16) {
	blk := &c.tail64
	if len(out) == BlockValues64 {
		blk = (*[BlockValues64]uint64)(out)
	}
	recon := c.ReconstructFixed64(summary)
	if simd.Enabled() {
		simd.FixedToFloatsBits64(blk, recon, int64(-int(bias)))
	} else {
		fixed.FixedToFloats64(blk[:], recon[:], bias)
	}
	oi := 0
	for bi, b := range bitmap {
		for b != 0 {
			i := bi<<3 + bits.TrailingZeros8(b)
			b &= b - 1
			blk[i] = binary.LittleEndian.Uint64(outlierBytes[oi:])
			oi += 8
		}
	}
	if blk == &c.tail64 {
		copy(out, blk[:])
	}
}
