package simd

// Every kernel below runs only where Enabled() is true; callers check it
// and run their scalar loops otherwise.

// ChooseBiasScan64 is ChooseBiasScan for one 128-double block, the
// exponent scan of fixed.ChooseBias64: the return value packs the running
// minimum of lo (the raw exponent with ±0/denormals mapped to 0x7FF) in
// bits 0-11, the maximum raw exponent in bits 12-23, and a
// NaN/Inf-present flag in bit 24.
//
//go:noescape
func ChooseBiasScan64(bits *[128]uint64) uint32

// FloatsToFixedScaled64 is FloatsToFixedScaled for the fp64 pipeline, the
// biased-conversion sweep of fixed.FloatsToFixed64 over one 128-double
// block: dst[i] = round-to-even(float64(src[i]) * scale), saturated at
// MaxInt64/MinInt64, zeros and denormals flushed to zero. VMULPD is the
// scalar product and VCVTPD2QQ rounds to nearest-even exactly as
// fixed.roundFixed64 does on every |v| < 2^63; the saturations are a
// compare-and-blend for v ≥ 2^63 and the conversion's own out-of-range
// result, MinInt64, below −2^63. If any lane needs the scalar reference
// path — a NaN/Inf, or a biased exponent outside [1, 2046] — it returns
// false and dst is undefined; the caller redoes the whole block with the
// scalar loop.
//
//go:noescape
func FloatsToFixedScaled64(dst *[128]int64, src *[128]uint64, bias int64, scale float64) bool

// ErrCheckRecon64 is ErrCheckRecon32 for the fp64 pipeline
// (compress.errCheckRecon64): FixedToFloatsBits64's convert and un-bias
// fused with the same three-case classification in 64-bit lanes. It
// fully overwrites the 16-byte outlier bitmap (one byte per 8-lane
// group) and returns the integer sum of the accepted mantissa deltas —
// at most 128 deltas below 2^52, so it cannot overflow. The caller
// scales it by 2^-52, which equals the scalar index-order float sum only
// while the integer sum stays below 2^53 (see compress.errCheckRecon64).
//
//go:noescape
func ErrCheckRecon64(vals *[128]uint64, recon *[128]int64, bm *[16]byte, nb int64, lim uint64) int64

// FixedToFloatsBits64 is FixedToFloatsBits for the fp64 pipeline, the
// conversion sweep of fixed.FixedToFloats64 over one 128-double block:
// dst[i] = bits(float64(recon[i]) * 2^-32) with the exponent un-bias nb
// re-applied (uint64(e+nb)<<52 reinserted, lanes with e∈{0,0x7FF} left
// untouched). VCVTQQ2PD rounds int64→float64 to nearest-even exactly as
// the scalar conversion does, and the product with the exact power of
// two 2^-32 is the scalar's division by 1<<32 bit for bit (no result is
// subnormal: a non-zero int64 has magnitude ≥ 1). VCVTQQ2PD is
// AVX-512DQ, which the tier requires.
//
//go:noescape
func FixedToFloatsBits64(dst *[128]uint64, recon *[128]int64, nb int64)

// ChooseBiasScan runs the exponent scan of fixed.ChooseBias over one
// block: the return value packs the running minimum of lo (the raw
// exponent with ±0/denormals mapped to 0xFF) in bits 0-7, the maximum
// raw exponent in bits 8-15, and a NaN/Inf-present flag in bit 16.
//
//go:noescape
func ChooseBiasScan(bits *[256]uint32) uint32

// Interpolate1D is compress.interpolate's Method1D body: 8-value flat
// head and tail, and a + (d·frac)>>5 across each 16-value segment,
// computed in 64-bit lanes exactly as the scalar accumulator form.
//
//go:noescape
func Interpolate1D(sum *[16]int32, out *[256]int32)

// Interpolate2D is compress.interpolate's Method2D body: the separable
// bilinear pass (horizontal row interpolation at >>3, then vertical
// lerp of the floored row values), bit-identical to the scalar form.
//
//go:noescape
func Interpolate2D(sum *[16]int32, out *[256]int32)

// Interpolate64 is compress.interpolate64: 8-value flat head and tail,
// and a + step·frac across each 16-value segment with step the
// truncating (b−a)/32, wrapping exactly as the scalar int64 form does.
//
//go:noescape
func Interpolate64(sum *[8]int64, out *[128]int64)

// Downsample1D fills sum[s] = int32(sum(fx[16s..16s+15]) >> 4) — the
// Average16 sweep of compress.downsample's Method1D.
//
//go:noescape
func Downsample1D(fx *[256]int32, sum *[16]int32)

// Downsample2D fills the 4×4 tile averages of compress.downsample's
// Method2D: sum[4R+C] = int32(sum of the 4×4 tile at (4R,4C) >> 4).
//
//go:noescape
func Downsample2D(fx *[256]int32, sum *[16]int32)

// ErrCheckRecon32 is the vectorized core of the fp32 error/outlier pass
// (compress.errCheckRecon32): it converts each Q15.16 reconstruction to
// float32, re-applies the exponent un-bias nb, classifies every value
// against the original bit pattern, writes the 32-byte outlier bitmap
// (one byte per 8-lane group, bit i ⇔ value 8g+i, fully overwriting bm)
// and returns the integer sum of the accepted mantissa deltas. The
// caller compacts outlier values from the bitmap and scales the sum by
// 2^-23.
//
// Lane-for-lane equivalence with the scalar loop: VCVTDQ2PS + VMULPS by
// 2^-16f is exactly float32(v) * (1.0 / (1<<16)); the un-bias surgery is
// the same uint32(e+nb)<<23 reinsertion with e∈{0,255} lanes blended
// back; the accept/outlier decision is the same three-case tree
// expressed as lane masks. Each 32-bit accumulator lane sums at most 32
// deltas below 2^23, so the per-lane and final sums cannot overflow.
//
//go:noescape
func ErrCheckRecon32(vals *[256]uint32, recon *[256]int32, bm *[32]byte, nb int32, lim uint32) int64

// FixedToFloatsBits is the vectorized decode-side conversion sweep of
// fixed.FixedToFloats: dst[i] = bits(float32(recon[i]) * 2^-16) with the
// exponent un-bias nb re-applied (uint32(e+nb)<<23 reinserted, lanes with
// e∈{0,255} left untouched). It is the first half of ErrCheckRecon32
// with a store in place of the classification, so the same lane-for-lane
// equivalence argument applies: VCVTDQ2PS + VMULPS by the exact power of
// two 2^-16f reproduce the scalar float32(v) * (1.0 / (1<<16)) bit for
// bit, and the rebias surgery is the identical mask-and-reinsert.
//
//go:noescape
func FixedToFloatsBits(dst *[256]uint32, recon *[256]int32, nb int32)

// FloatsToFixedScaled is the vectorized biased-conversion sweep of
// fixed.FloatsToFixed: dst[i] = round-to-even(float64(src[i]) * scale)
// with saturation at ±MaxInt32/MinInt32 and zeros/denormals flushed to
// zero, matching the scalar fused-scale path bit for bit (VCVTPS2PD,
// VMULPD and VCVTPD2DQ perform the identical correctly-rounded
// operations). If any lane needs the scalar reference path — a special
// exponent, or a biased exponent leaving the normal range — it returns
// false and dst is undefined; the caller redoes the whole block with the
// scalar loop.
//
//go:noescape
func FloatsToFixedScaled(dst *[256]int32, src *[256]uint32, bias int32, scale float64) bool

// reduceFixed32AVX2 and countRanges32AVX2 are the vector bodies of
// ReduceFixed32 and CountRanges32 (reduce.go) over a non-zero multiple
// of 8 values, 256-bit AVX2 code that every host Enabled() admits runs.
//
//go:noescape
func reduceFixed32AVX2(x []int32) (sum, abs int64, mn, mx int32)

//go:noescape
func countRanges32AVX2(x []int32, lo *[3]int32, w *[3]uint32, n *[3]int64)

// reduceFixed64AVX512 is the vector body of ReduceFixed64 over a
// non-zero multiple of 8 values: it overwrites out with their partial
// sums and extremes.
//
//go:noescape
func reduceFixed64AVX512(x []int64, out *[6]int64)

// countRanges64AVX512 is the vector body of CountRanges64 over a
// non-zero multiple of 8 values.
//
//go:noescape
func countRanges64AVX512(x []int64, lo *[3]int64, w *[3]uint64, n *[3]int64)

// base64EncodeVBMI and base64DecodeVBMI are the vector bodies of
// Base64Encode and Base64Decode (base64.go) over a non-zero number of
// whole groups — 48 bytes, 64 characters; call only when hasVBMI is true.
//
//go:noescape
func base64EncodeVBMI(dst, src []byte)

//go:noescape
func base64DecodeVBMI(dst, src []byte) bool
