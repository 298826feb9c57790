// Package simd provides vectorized forms of the AVR codec's two hottest
// block passes for amd64 machines with AVX2, with runtime feature
// detection. Every kernel is lane-for-lane bit-identical to the scalar
// reference loops in internal/fixed and internal/compress: the float
// instructions used (VCVTDQ2PS, VMULPS, VCVTPS2PD, VMULPD, VCVTPD2DQ)
// perform exactly the per-lane operation the scalar code performs, and
// the integer mask logic reproduces the reference decision tree branch
// for branch. The equivalence is pinned three ways: the property tests
// in this package (scalar vs SIMD on adversarial bit patterns), the
// codec differential tests in the avr package (SIMD-accelerated fast
// path vs retained scalar reference codec), and the codec fuzz targets.
//
// Kernels operate on whole AVR blocks — 256 values as [256]uint32 bit
// patterns, or 128 doubles for the one fp64 kernel (FixedToFloatsBits64)
// — the unit the compressor hands around; callers fall back to
// the scalar loops when Enabled returns false or a block needs a slow
// path the kernels do not implement (reported via their return values).
//
// The integer reductions a store query runs over fixed-point
// reconstructions (reduce.go: ReduceFixed32/64, CountRanges32/64) are
// the exception to both rules: they take slices of any length and
// dispatch themselves, falling back to — and tested against — their
// own pure-Go loops.
package simd
