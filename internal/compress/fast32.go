package compress

import (
	"encoding/binary"
	"math"
	"math/bits"

	"avr/internal/fixed"
	"avr/internal/simd"
)

// The compressor datapath, as flat slice passes: one fixed-point convert
// sweep, the strided 16→1 downsample, one reconstruction convert sweep
// and one branch-light error/outlier select, with every intermediate
// held in compressor scratch. No Result struct is filled in (no 1 KiB
// Reconstructed image, no outlier copy), so the codec encode loop runs
// allocation-free; Compress/CompressWith are adapters over this path
// that copy the winner into a Result. The scalar
// per-value formulation it was derived from is the test oracle
// (reference_test.go); TestCompressDifferential pins every output field
// bit-identical to it.

// FastResult describes one fast-path block compression. Summary, Bitmap
// and Outliers alias compressor scratch and are valid only until the
// next compression call on the same Compressor; callers serialise them
// immediately (block.AppendCompressed32).
type FastResult struct {
	OK        bool
	Method    Method
	Bias      int8
	SizeLines int
	AvgError  float64
	Summary   *[SummaryValues]int32
	Bitmap    *[BitmapBytes]byte
	Outliers  []uint32
}

// CompressFast compresses one block through the flat passes under the
// compressor's configured thresholds. Every CompressFast* entry point
// only reads vals: the compressor never writes its input, so a caller
// may hand it a view of its own values (the codec's EncodeTo reads every
// full block in place).
func (c *Compressor) CompressFast(vals *[BlockValues]uint32, dt DataType) FastResult {
	return c.CompressFastWith(vals, dt, c.thresholds)
}

// CompressFastWith is CompressFast with explicit thresholds. It attempts
// the enabled placement variants in order (1D, then 2D) and keeps the
// better one. An attempt only counts its outliers (the bitmap's set
// bits); the winner's are compacted once, at the end.
func (c *Compressor) CompressFastWith(vals *[BlockValues]uint32, dt DataType, th Thresholds) FastResult {
	var bias int8
	if dt == Float32 {
		bias, _ = fixed.ChooseBias(vals[:])
		fixed.FloatsToFixed(c.fx[:], vals[:], bias)
	} else {
		for i, b := range vals {
			c.fx[i] = int32(b)
		}
	}

	var best FastResult
	bestValid := false
	sum, bm := &c.sumA, &c.bmA
	for _, m := range []Method{Method1D, Method2D} {
		if m == Method1D && c.variants&Variant1D == 0 {
			continue
		}
		if m == Method2D && c.variants&Variant2D == 0 {
			continue
		}
		r := c.fastAttempt(vals, dt, bias, m, th, sum, bm)
		if !bestValid || fastBetter(&r, &best) {
			best = r
			bestValid = true
			// The winner owns its scratch; aim the next attempt elsewhere.
			if sum == &c.sumA {
				sum, bm = &c.sumB, &c.bmB
			} else {
				sum, bm = &c.sumA, &c.bmA
			}
		}
	}
	compactOutliers32(vals, best.Bitmap, best.Outliers)
	return best
}

// compactOutliers32 copies the values whose bitmap bits are set into out
// (sized to their count), in index order. It walks the bitmap eight bytes
// at a time: little-endian word bit w*64+t is bitmap bit (byte w*8+t/8,
// bit t%8), so the trailing-zeros walk visits values in index order.
func compactOutliers32(vals *[BlockValues]uint32, bm *[BitmapBytes]byte, out []uint32) {
	k := 0
	for w := 0; w < BitmapBytes/8; w++ {
		for v := binary.LittleEndian.Uint64(bm[w*8:]); v != 0; v &= v - 1 {
			out[k] = vals[w<<6+bits.TrailingZeros64(v)]
			k++
		}
	}
}

// expandOutliers32 undoes compactOutliers32: it writes outlier k over
// the value at the bitmap's k-th set bit, walking the same words.
func expandOutliers32(vals *[BlockValues]uint32, bm *[BitmapBytes]byte, out []uint32) {
	k := 0
	for w := 0; w < BitmapBytes/8; w++ {
		for v := binary.LittleEndian.Uint64(bm[w*8:]); v != 0; v &= v - 1 {
			vals[w<<6+bits.TrailingZeros64(v)] = out[k]
			k++
		}
	}
}

// countOutliers is the number of set bits in a bitmap.
func countOutliers(bm []byte) (n int) {
	for ; len(bm) >= 8; bm = bm[8:] {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(bm))
	}
	return n
}

// fastBetter reports whether attempt a beats attempt b: success first,
// then smaller compressed size, then fewer outliers, then lower average
// error. Strict improvement only, so ties keep the first attempt (1D).
func fastBetter(a, b *FastResult) bool {
	if a.OK != b.OK {
		return a.OK
	}
	if a.SizeLines != b.SizeLines {
		return a.SizeLines < b.SizeLines
	}
	if len(a.Outliers) != len(b.Outliers) {
		return len(a.Outliers) < len(b.Outliers)
	}
	return a.AvgError < b.AvgError
}

// fastAttempt runs one placement variant: downsample, interpolate, then
// one fused reconstruction-convert + error/outlier pass. The result's
// Outliers has the attempt's outlier count as its length but is not yet
// filled: CompressFastWith compacts the winner's.
func (c *Compressor) fastAttempt(vals *[BlockValues]uint32, dt DataType, bias int8, m Method, th Thresholds, sum *[SummaryValues]int32, bm *[BitmapBytes]byte) FastResult {
	downsample(&c.fx, sum, m)
	interpolate(sum, &c.recon, m)
	clear(bm[:])

	var nOut, nonOutliers int
	var errSum float64
	if dt == Float32 {
		nOut, nonOutliers, errSum = errCheckRecon32(vals, &c.recon, bias, c.mantissaBits32(th), bm)
	} else {
		nOut, nonOutliers, errSum = errCheckFixed32(vals, &c.recon, th.T1, bm)
	}

	r := FastResult{Method: m, Bias: bias, Summary: sum, Bitmap: bm}
	if nOut > 0 {
		r.Outliers = c.out[:nOut]
	}
	if nonOutliers > 0 {
		r.AvgError = errSum / float64(nonOutliers)
	}
	r.SizeLines = CompressedLines(nOut)
	r.OK = r.SizeLines <= MaxCompressedLines && r.AvgError <= th.T2
	if !r.OK && r.SizeLines > MaxCompressedLines {
		r.SizeLines = BlockLines
	}
	return r
}

// errCheckRecon32 fuses the reconstruction convert sweep
// (fixed.FixedToFloats) with the reference comparator's Float32 branch
// (valueError in reference_test.go) over the whole block: each
// reconstructed fixed-point value becomes a float bit pattern in a
// register and is classified immediately, with no approx array
// round-trip. Bitmap bits are set, outliers counted and the relative
// error of non-outliers accumulated in index order (the float64 sum must
// match the reference accumulation exactly).
//
// The branch structure differs from the reference switch but decides
// identically: (orig XOR approx) over the sign+exponent bits is zero
// exactly when the reference reaches its mantissa-delta case (both
// normal, same sign, same exponent) or its "both special"/"both
// denormal" accepting cases; every remaining combination is an outlier
// except a denormal original with a denormal approximation of the
// opposite sign (which the reference accepts with zero error — adding
// that zero to the sum is skipped, which cannot change a float64 sum of
// non-negative terms).
// Error accumulation: every accepted mantissa delta d is below 2^23, so
// its relative error float64(d)/2^23 is an exact multiple of 2^-23 and
// every partial sum (< 256) is too — float64 holds those multiples
// exactly (< 2^31 quanta against a 52-bit mantissa), so the reference's
// stepwise float sum never rounds and equals the scaled integer sum
// computed here.
func errCheckRecon32(vals *[BlockValues]uint32, recon *[BlockValues]int32, bias int8, n int, bm *[BitmapBytes]byte) (nOut, nonOutliers int, errSum float64) {
	lim := uint32(1) << (23 - n) // d >= lim  ⇔  bits.Len32(d) > 23-n
	nb := -int(bias)
	if simd.Enabled() {
		// The vector kernel runs the identical classification lane for
		// lane (see internal/simd), filling the bitmap and returning the
		// integer delta sum; the outliers are its set bits.
		dSum := simd.ErrCheckRecon32(vals, recon, bm, int32(nb), lim)
		nOut = countOutliers(bm[:])
		return nOut, BlockValues - nOut, float64(dSum) / (1 << 23)
	}
	var dSum int64
	for i := 0; i < BlockValues; i++ {
		// Inline fixed.FixedToFloats: convert and un-bias one value.
		a := math.Float32bits(float32(recon[i]) * (1.0 / (1 << fixed.FracBits)))
		if nb != 0 {
			if e := int(a>>23) & 0xFF; e != 0 && e != 0xFF {
				a = a&^(0xFF<<23) | uint32(e+nb)<<23
			}
		}
		o := vals[i]
		if (o^a)&0xFF800000 == 0 {
			// Same sign and exponent.
			if eo := o >> 23 & 0xFF; eo-1 < 0xFE {
				// Both normal: the reference's mantissa-delta case.
				mo, ma := o&0x7FFFFF, a&0x7FFFFF
				d := mo - ma
				if ma > mo {
					d = ma - mo
				}
				if d < lim {
					dSum += int64(d)
					nonOutliers++
					continue
				}
			} else if o == a || eo == 0 {
				// Specials match bit-exactly, or both are ±denormal/zero.
				nonOutliers++
				continue
			}
		} else if o&0x7F800000 == 0 && a&0x7F800000 == 0 {
			// Denormal/zero original, denormal/zero approximation of the
			// opposite sign: accepted with zero error.
			nonOutliers++
			continue
		}
		bm[i>>3] |= 1 << (i & 7)
		nOut++
	}
	return nOut, nonOutliers, float64(dSum) / (1 << 23)
}

// errCheckFixed32 is the reference comparator's Fixed32 branch over the
// whole block.
func errCheckFixed32(vals *[BlockValues]uint32, recon *[BlockValues]int32, t1 float64, bm *[BitmapBytes]byte) (nOut, nonOutliers int, errSum float64) {
	for i := 0; i < BlockValues; i++ {
		o, a := int64(int32(vals[i])), int64(recon[i])
		d := o - a
		if d < 0 {
			d = -d
		}
		outlier := false
		var relErr float64
		if o == 0 {
			outlier = d != 0
		} else {
			ao := o
			if ao < 0 {
				ao = -ao
			}
			relErr = float64(d) / float64(ao)
			if relErr > t1 {
				outlier = true
				relErr = 0
			}
		}
		if outlier {
			bm[i>>3] |= 1 << (i & 7)
			nOut++
		} else {
			errSum += relErr
			nonOutliers++
		}
	}
	return nOut, nonOutliers, errSum
}

// ReconstructFixed32 interpolates a summary line into compressor
// scratch and returns the 256 Q15.16 reconstructions — DecompressBits32
// stopped before the fixed→float pass and the outlier overlay, for
// readers that reduce in the codec's own arithmetic (the store's
// queries). Value i is x·2^-(fixed.FracBits+bias). The array is valid
// until the compressor's next call and may be overwritten by the caller.
func (c *Compressor) ReconstructFixed32(summary *[SummaryValues]int32, m Method) *[BlockValues]int32 {
	interpolate(summary, &c.recon, m)
	return &c.recon
}

// DecompressBits32 reconstructs the leading len(out) ≤ BlockValues
// values of a Float32 block from its parsed wire parts without
// allocating: interpolate into scratch (SIMD when available), one
// fixed→float-bits pass (simd.FixedToFloatsBits, or the scalar
// fixed.FixedToFloats it replicates lane for lane where the kernels do
// not exist), then overlay the exact outliers driven by the bitmap's set
// bits. bitmap and outlierBytes may be nil/empty for an outlier-free
// block; outlierBytes holds the packed little-endian outlier values and
// must cover every set bitmap bit (callers validate via block.Cursor).
//
// A full block is written straight into out, which callers alias over
// their []float32 destination; only a stream's partial last record goes
// through compressor scratch and is copied. This is the one reconstruct
// kernel behind the codec's decode, the store's disk and cache-hit reads
// and the query engine's exact visits.
func (c *Compressor) DecompressBits32(out []uint32, summary *[SummaryValues]int32, bitmap, outlierBytes []byte, m Method, bias int8) {
	blk := &c.tail
	if len(out) == BlockValues {
		blk = (*[BlockValues]uint32)(out)
	}
	c.reconstructBits32(blk, summary, m, bias)
	oi := 0
	for bi, b := range bitmap {
		for b != 0 {
			i := bi<<3 + bits.TrailingZeros8(b)
			b &= b - 1
			blk[i] = binary.LittleEndian.Uint32(outlierBytes[oi:])
			oi += 4
		}
	}
	if blk == &c.tail {
		copy(out, blk[:])
	}
}

// reconstructBits32 is DecompressBits32 before the outlier overlay: the
// summary interpolated, then the Float32 bit patterns of every value.
func (c *Compressor) reconstructBits32(blk *[BlockValues]uint32, summary *[SummaryValues]int32, m Method, bias int8) {
	recon := c.ReconstructFixed32(summary, m)
	if simd.Enabled() {
		simd.FixedToFloatsBits(blk, recon, int32(-int(bias)))
	} else {
		fixed.FixedToFloats(blk[:], recon[:], bias)
	}
}

// DecompressFast writes into out the block r decodes to, r being the
// result of this compressor's last CompressFast* call on a block of type
// dt, whose summary, bitmap and outliers still sit in its scratch. A
// Float32 block goes through DecompressBits32's reconstruct; a Fixed32
// block takes the two's-complement patterns of the interpolation; then
// the outliers go back to their places (expandOutliers32). The summary
// is re-interpolated because the last attempt's reconstruction may be the
// loser's. The result is Decompress's bit for bit, without its scalar
// per-value conversion: the simulated LLC rebuilds every block it
// compresses through it.
func (c *Compressor) DecompressFast(out *[BlockValues]uint32, r *FastResult, dt DataType) {
	if dt == Float32 {
		c.reconstructBits32(out, r.Summary, r.Method, r.Bias)
	} else {
		for i, x := range c.ReconstructFixed32(r.Summary, r.Method) {
			out[i] = uint32(x)
		}
	}
	expandOutliers32(out, r.Bitmap, r.Outliers)
}
