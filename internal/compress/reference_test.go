package compress

import (
	"math/bits"

	"avr/internal/fixed"
)

// The reference compressor: the original per-value scalar formulation of
// the datapath (§3.3), kept as the single oracle the shipped flat-pass
// compressor (fast32.go / fast64.go) is compared against. Clarity over
// speed: one value at a time through the per-value fixed-point
// conversions and the hardware comparator's decision tree, exactly as
// the paper describes them. It shares downsample/interpolate with the
// shipped path (their SIMD and scalar forms are pinned against each
// other in internal/simd). Exported so the differential tests, which
// live in package compress_test to be able to import internal/workloads,
// can reach it.

// ReferenceCompress compresses one block with the reference datapath,
// attempting the variants in v (1D first) and keeping the better one.
func ReferenceCompress(vals *[BlockValues]uint32, dt DataType, th Thresholds, v VariantMask) Result {
	var bias int8
	if dt == Float32 {
		bias, _ = fixed.ChooseBias(vals[:])
	}

	// Convert the block to fixed point once; both variants share it.
	var fx [BlockValues]int32
	for i, b := range vals {
		if dt == Float32 {
			fx[i] = fixed.FloatToFixed(fixed.ApplyBias(b, bias))
		} else {
			fx[i] = int32(b)
		}
	}

	var best Result
	bestValid := false
	for _, m := range []Method{Method1D, Method2D} {
		if m == Method1D && v&Variant1D == 0 {
			continue
		}
		if m == Method2D && v&Variant2D == 0 {
			continue
		}
		r := attempt(vals, &fx, dt, bias, m, th)
		if !bestValid || better(&r, &best) {
			best = r
			bestValid = true
		}
	}
	return best
}

// better reports whether attempt a beats attempt b: success first, then
// smaller compressed size, then fewer outliers, then lower average error.
func better(a, b *Result) bool {
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

// attempt runs one placement variant end to end: downsample, reconstruct,
// error-check, select outliers.
func attempt(vals *[BlockValues]uint32, fx *[BlockValues]int32, dt DataType, bias int8, m Method, th Thresholds) Result {
	r := Result{Method: m, Type: dt, Bias: bias}
	var recon [BlockValues]int32
	downsample(fx, &r.Summary, m)
	interpolate(&r.Summary, &recon, m)

	// Convert the reconstruction to output bit patterns and run the error
	// check against the originals.
	n := th.MantissaBits()
	var errSum float64
	var nonOutliers int
	for i := 0; i < BlockValues; i++ {
		var approx uint32
		if dt == Float32 {
			approx = fixed.RemoveBias(fixed.FixedToFloat(recon[i]), bias)
		} else {
			approx = uint32(recon[i])
		}
		relErr, outlier := valueError(vals[i], approx, dt, n, th.T1)
		if outlier {
			r.Bitmap[i>>3] |= 1 << (i & 7)
			r.Outliers = append(r.Outliers, vals[i])
			r.Reconstructed[i] = vals[i] // outliers are stored exactly
		} else {
			errSum += relErr
			nonOutliers++
			r.Reconstructed[i] = approx
		}
	}
	if nonOutliers > 0 {
		r.AvgError = errSum / float64(nonOutliers)
	}
	r.SizeLines = CompressedLines(len(r.Outliers))
	r.OK = r.SizeLines <= MaxCompressedLines && r.AvgError <= th.T2
	if !r.OK && r.SizeLines > MaxCompressedLines {
		r.SizeLines = BlockLines // stored uncompressed
	}
	return r
}

// valueError classifies one value against its reconstruction. It returns
// the relative error contribution (only meaningful for non-outliers) and
// whether the value is an outlier.
//
// For floats this follows the paper's hardware comparator: an outlier has
// a sign or exponent mismatch, or a mantissa difference at or above the
// Nth most significant mantissa bit. The returned error for non-outliers
// is mantissaDiff/2^23, the quantity the averaging tree accumulates.
func valueError(orig, approx uint32, dt DataType, n int, t1 float64) (relErr float64, outlier bool) {
	if dt == Fixed32 {
		o, a := int64(int32(orig)), int64(int32(approx))
		d := o - a
		if d < 0 {
			d = -d
		}
		if o == 0 {
			return 0, d != 0
		}
		ao := o
		if ao < 0 {
			ao = -ao
		}
		re := float64(d) / float64(ao)
		return re, re > t1
	}

	if fixed.IsSpecial(orig) {
		// NaN/Inf can never be reconstructed from an average.
		return 0, orig != approx
	}
	if fixed.IsDenormalOrZero(orig) {
		// ±0/denormal: match iff the approximation is also (flushed) zero.
		return 0, !fixed.IsDenormalOrZero(approx)
	}
	if fixed.IsDenormalOrZero(approx) || fixed.IsSpecial(approx) {
		return 0, true
	}
	if orig>>31 != approx>>31 { // sign mismatch
		return 0, true
	}
	if (orig>>23)&0xFF != (approx>>23)&0xFF { // exponent mismatch
		return 0, true
	}
	mo, ma := orig&0x7FFFFF, approx&0x7FFFFF
	var d uint32
	if mo > ma {
		d = mo - ma
	} else {
		d = ma - mo
	}
	// Outlier when the difference reaches the Nth MSbit of the mantissa,
	// i.e. d >= 2^(23-n).
	if bits.Len32(d) > 23-n {
		return 0, true
	}
	return float64(d) / (1 << 23), false
}

// ReferenceCompress64 is the reference datapath for 128-double blocks
// (1D downsampling only).
func ReferenceCompress64(vals *[BlockValues64]uint64, th Thresholds) Result64 {
	var r Result64
	bias, _ := fixed.ChooseBias64(vals[:])
	r.Bias = bias

	var fx [BlockValues64]int64
	for i, b := range vals {
		fx[i] = fixed.FloatToFixed64(fixed.ApplyBias64(b, bias))
	}
	for s := 0; s < SummaryValues64; s++ {
		r.Summary[s] = fixed.Average16x64(fx[s*SubBlockSize64 : (s+1)*SubBlockSize64])
	}
	var rec [BlockValues64]int64
	interpolate64(&r.Summary, &rec)

	n := th.MantissaBits64()
	var errSum float64
	var nonOutliers int
	for i := 0; i < BlockValues64; i++ {
		approx := fixed.RemoveBias64(fixed.FixedToFloat64(rec[i]), bias)
		relErr, outlier := valueError64(vals[i], approx, n)
		if outlier {
			r.Bitmap[i>>3] |= 1 << (i & 7)
			r.Outliers = append(r.Outliers, vals[i])
			r.Reconstructed[i] = vals[i]
		} else {
			errSum += relErr
			nonOutliers++
			r.Reconstructed[i] = approx
		}
	}
	if nonOutliers > 0 {
		r.AvgError = errSum / float64(nonOutliers)
	}
	r.SizeLines = CompressedLines64(len(r.Outliers))
	r.OK = r.SizeLines <= MaxCompressedLines && r.AvgError <= th.T2
	if !r.OK && r.SizeLines > MaxCompressedLines {
		r.SizeLines = BlockLines
	}
	return r
}

// valueError64 is the 64-bit outlier comparator: sign and exponent must
// match exactly; the mantissa difference must stay below the Nth MSbit.
func valueError64(orig, approx uint64, n int) (relErr float64, outlier bool) {
	if fixed.IsSpecial64(orig) {
		return 0, orig != approx
	}
	if fixed.IsDenormalOrZero64(orig) {
		return 0, !fixed.IsDenormalOrZero64(approx)
	}
	if fixed.IsDenormalOrZero64(approx) || fixed.IsSpecial64(approx) {
		return 0, true
	}
	if orig>>63 != approx>>63 {
		return 0, true
	}
	if (orig>>52)&0x7FF != (approx>>52)&0x7FF {
		return 0, true
	}
	mo, ma := orig&((1<<52)-1), approx&((1<<52)-1)
	var d uint64
	if mo > ma {
		d = mo - ma
	} else {
		d = ma - mo
	}
	if bits.Len64(d) > 52-n {
		return 0, true
	}
	return float64(d) / (1 << 52), false
}
