// Package simd holds the vector kernels of the serving path for amd64,
// with runtime feature detection, and their portable fallbacks. The rule
// is one tier: a kernel runs on an AVX-512 host (F/DQ/BW/VL, plus AVX2,
// which Enabled reports), or its Go loop runs. Base64 also needs VBMI.
// There are three families:
//
//   - The codec's block passes (kernels_amd64.go): ErrCheckRecon32,
//     FloatsToFixedScaled, FixedToFloatsBits, ChooseBiasScan,
//     Interpolate1D/2D/64, Downsample1D/2D, FixedToFloatsBits64 and the
//     fp64 encode kernels ChooseBiasScan64, FloatsToFixedScaled64 and
//     ErrCheckRecon64. They operate on whole AVR blocks — 256 values as
//     [256]uint32 bit patterns, or 128 doubles for the fp64 kernels — the
//     unit the compressor hands around; callers check Enabled and run the
//     scalar loops of internal/fixed and internal/compress otherwise, or
//     when a block needs a slow path the kernels do not implement
//     (reported via their return values).
//   - The integer reductions a store query runs over fixed-point
//     reconstructions (reduce.go): ReduceFixed32, CountRanges32,
//     ReduceFixed64 and CountRanges64.
//   - Standard base64 for the batch wire (base64.go): Base64Encode and
//     Base64Decode.
//
// The last two families take slices of any length and dispatch
// themselves, falling back to — and tested against — their own pure-Go
// loops and encoding/base64.
//
// Every kernel is bit-identical to what it replaces. For the block passes
// that is lane for lane against the scalar reference loops: the float
// instructions used (VCVTDQ2PS, VMULPS, VCVTPS2PD, VMULPD, VCVTPD2DQ,
// VCVTQQ2PD, VCVTPD2QQ) perform exactly the per-lane operation the
// scalar code performs, and
// the integer mask logic reproduces the reference decision tree branch
// for branch. The equivalence is pinned three ways: the property tests
// in this package (scalar vs SIMD on adversarial bit patterns), the
// codec differential tests in the avr package (SIMD-accelerated fast
// path vs retained scalar reference codec), and the codec fuzz targets.
package simd
