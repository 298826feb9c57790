// Package fixed implements the float/fixed-point conversions and exponent
// biasing used by the AVR compressor (ICPP'19, §3.3).
//
// The AVR compression core operates on 32-bit two's-complement fixed-point
// numbers so that sub-block averaging reduces to integer adds and a shift.
// Blocks of IEEE-754 single-precision floats are first exponent-biased to
// bring their magnitudes into the representable fixed-point range, then
// converted value by value. Decompression applies the inverse conversion
// and removes the bias.
package fixed

import (
	"math"

	"avr/internal/simd"
)

// FracBits is the number of fractional bits in the Q15.16 fixed-point
// format used by the compressor datapath.
const FracBits = 16

// IntBits is the number of integer (non-sign) bits in the fixed format.
const IntBits = 31 - FracBits

// TargetExp is the unbiased IEEE exponent the largest magnitude of a block
// is steered to by biasing. 2^TargetExp must fit comfortably in the fixed
// format's integer range (|v| < 2^IntBits) with headroom for sub-block sums.
const TargetExp = IntBits - 3

// roundMagic is 1.5×2^52. Adding and subtracting it rounds a float64 to
// the nearest integer with ties to even — the FPU's round-to-nearest on
// the addition does the work — exactly like math.RoundToEven for any
// |v| < 2^51 (the sum stays in [2^52, 2^53) where the ulp is 1, and the
// magic constant is even so ties keep their parity). The conversion
// sweeps use it because math.RoundToEven is a library call on targets
// without a native rounding instruction.
const roundMagic = 6755399441055744.0

// ieeeExpBits extracts the raw (biased) 8-bit exponent field.
func ieeeExpBits(bits uint32) int { return int(bits>>23) & 0xFF }

// IsSpecial reports whether the float bit pattern encodes NaN or ±Inf.
func IsSpecial(bits uint32) bool { return ieeeExpBits(bits) == 0xFF }

// IsDenormalOrZero reports whether the bit pattern encodes ±0 or a denormal.
// The AVR datapath flushes denormals to zero.
func IsDenormalOrZero(bits uint32) bool { return ieeeExpBits(bits) == 0 }

// ChooseBias selects the exponent bias for a block of float bit patterns,
// following §3.3 of the paper: the bias steers the block's largest exponent
// to TargetExp so the conversion to fixed point loses as little precision as
// possible. Biasing is skipped (bias 0, ok false) when
//
//   - the block contains NaN/Inf (adding a bias could create or destroy
//     special values), or
//   - the bias would overflow or underflow the 8-bit exponent field of any
//     value in the block, or
//   - the block holds only zeros/denormals (nothing to steer).
//
// A zero bias with ok=true is returned when the block is already in range.
func ChooseBias(bits []uint32) (bias int8, ok bool) {
	// Branch-free scan: specials are collected into a flag (checking it
	// after the loop returns the same (0, false) as the early return —
	// the function is pure), and ±0/denormals are mapped to 0xFF for the
	// running min so they can never lower it (they already cannot raise
	// maxE above its 0 start).
	minE, maxE := 0xFF, 0
	special := 0
	if len(bits) == 256 && simd.Enabled() {
		p := simd.ChooseBiasScan((*[256]uint32)(bits))
		minE, maxE = int(p&0xFF), int(p>>8)&0xFF
		special = int(p >> 16)
	} else {
		for _, b := range bits {
			e := ieeeExpBits(b)
			special |= (e + 1) >> 8           // 1 iff e == 0xFF
			lo := e | (((e - 1) >> 8) & 0xFF) // 0xFF iff e == 0
			minE = min(minE, lo)
			maxE = max(maxE, e)
		}
	}
	if special != 0 || maxE == 0 {
		return 0, false
	}
	// Raw exponent field value corresponding to unbiased exponent TargetExp.
	target := TargetExp + 127
	d := target - maxE
	if d == 0 {
		return 0, true
	}
	// The bias is an 8-bit signed quantity in hardware.
	if d > 127 || d < -128 {
		return 0, false
	}
	// Every value's exponent must stay inside the normal range [1, 254].
	if minE+d < 1 || maxE+d > 254 {
		return 0, false
	}
	return int8(d), true
}

// ApplyBias returns the float bit pattern with its exponent shifted by
// bias, i.e. the value multiplied by 2^bias. Zeros and denormals pass
// through unchanged. The caller guarantees (via ChooseBias) that the shift
// cannot overflow or underflow.
func ApplyBias(bits uint32, bias int8) uint32 {
	if bias == 0 || IsDenormalOrZero(bits) || IsSpecial(bits) {
		return bits
	}
	e := ieeeExpBits(bits) + int(bias)
	return bits&^(0xFF<<23) | uint32(e)<<23
}

// RemoveBias is the inverse of ApplyBias (an 8-bit exponent addition in
// hardware, one cycle).
func RemoveBias(bits uint32, bias int8) uint32 { return ApplyBias(bits, -bias) }

// FloatToFixed converts a biased float bit pattern to Q15.16 fixed point
// with round-to-nearest. Values whose magnitude exceeds the fixed range
// saturate; the compressor marks them as outliers via the error check, so
// saturation only has to be safe, not precise. Denormals flush to zero.
func FloatToFixed(bits uint32) int32 {
	if IsDenormalOrZero(bits) {
		return 0
	}
	f := math.Float32frombits(bits)
	v := float64(f) * (1 << FracBits)
	switch {
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	}
	// |v| < 2^31 here, well inside roundMagic's exact range.
	return int32((v + roundMagic) - roundMagic)
}

// FixedToFloat converts a Q15.16 fixed-point value back to a float bit
// pattern (still biased; callers apply RemoveBias afterwards). The
// float32 conversion rounds v's significand to 24 bits and the
// power-of-two scale is exact, so this single-precision form is
// bit-identical to float32(float64(v) / (1 << FracBits)) — the scale
// shifts the exponent without touching the significand, and the result
// (≥ 2^-16 in magnitude when nonzero) can never be denormal.
func FixedToFloat(v int32) uint32 {
	f := float32(v) * (1.0 / (1 << FracBits))
	return math.Float32bits(f)
}

// FloatsToFixed is the flat-pass form of ApplyBias + FloatToFixed over a
// whole block: dst[i] = FloatToFixed(ApplyBias(src[i], bias)). It exists
// so the codec hot path converts a block in one bounds-check-friendly
// sweep; results are bit-identical to the per-value calls. dst must be
// at least as long as src.
//
// The common case folds the bias into one exact power-of-two scale:
// for a normal value whose biased exponent stays normal, ApplyBias is
// exactly a multiplication by 2^bias, so float64(biased)·2^FracBits
// equals float64(orig)·2^(bias+FracBits) — both products are exact in
// float64 (the operands are powers of two and float32-exact values), so
// the fused form rounds identically. Zeros, denormals, specials and any
// exponent the bias would push out of the normal range take the
// per-value reference path.
func FloatsToFixed(dst []int32, src []uint32, bias int8) {
	dst = dst[:len(src)]
	if bias == 0 {
		for i, b := range src {
			dst[i] = FloatToFixed(b)
		}
		return
	}
	// 2^(bias+FracBits) built directly from the exponent; bias is at
	// most ±128 so the scale is always a normal float64.
	scale := math.Float64frombits(uint64(1023+int(bias)+FracBits) << 52)
	if len(src) == 256 && simd.Enabled() {
		// Whole-block vector sweep (bit-identical; see internal/simd). A
		// false return means some lane needs the reference path below.
		if simd.FloatsToFixedScaled((*[256]int32)(dst), (*[256]uint32)(src), int32(bias), scale) {
			return
		}
	}
	for i, b := range src {
		e := int(b>>23) & 0xFF
		if eb := e + int(bias); e == 0 || e == 0xFF || eb < 1 || eb > 254 {
			dst[i] = FloatToFixed(ApplyBias(b, bias))
			continue
		}
		v := float64(math.Float32frombits(b)) * scale
		switch {
		case v >= math.MaxInt32:
			dst[i] = math.MaxInt32
		case v <= math.MinInt32:
			dst[i] = math.MinInt32
		default:
			dst[i] = int32((v + roundMagic) - roundMagic)
		}
	}
}

// FixedToFloats is the flat-pass inverse: dst[i] =
// RemoveBias(FixedToFloat(src[i]), bias), bit-identical to the per-value
// calls. dst must be at least as long as src.
func FixedToFloats(dst []uint32, src []int32, bias int8) {
	dst = dst[:len(src)]
	nb := -int(bias)
	for i, v := range src {
		// Same expression as FixedToFloat: one int32→float32 rounding,
		// then the exact power-of-two scale.
		b := math.Float32bits(float32(v) * (1.0 / (1 << FracBits)))
		if nb != 0 {
			// Inline RemoveBias: zeros/denormals and specials pass through.
			if e := ieeeExpBits(b); e != 0 && e != 0xFF {
				b = b&^(0xFF<<23) | uint32(e+nb)<<23
			}
		}
		dst[i] = b
	}
}

// Average16 returns the fixed-point average of exactly 16 fixed-point
// values: an integer sum followed by an arithmetic shift, as in the AVR
// downsampling datapath.
func Average16(vals []int32) int32 {
	var sum int64
	for _, v := range vals {
		sum += int64(v)
	}
	return int32(sum >> 4)
}
