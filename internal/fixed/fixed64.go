package fixed

import (
	"math"

	"avr/internal/simd"
)

// 64-bit datapath: the paper's compressor handles 32-bit values; this is
// the "easily extended to support other representations" path (§3.3),
// used by the double-precision codec. Q31.32 fixed point.
const (
	// FracBits64 is the number of fractional bits of the 64-bit format.
	FracBits64 = 32
	// IntBits64 is the number of integer (non-sign) bits.
	IntBits64 = 63 - FracBits64
	// TargetExp64 is the unbiased IEEE-754 double exponent the largest
	// block magnitude is steered to.
	TargetExp64 = IntBits64 - 3
)

func ieeeExpBits64(bits uint64) int { return int(bits>>52) & 0x7FF }

// IsSpecial64 reports whether the double bit pattern encodes NaN or ±Inf.
func IsSpecial64(bits uint64) bool { return ieeeExpBits64(bits) == 0x7FF }

// IsDenormalOrZero64 reports whether the pattern encodes ±0 or a
// denormal.
func IsDenormalOrZero64(bits uint64) bool { return ieeeExpBits64(bits) == 0 }

// ChooseBias64 selects the exponent bias for a block of double bit
// patterns, with the same skip rules as ChooseBias.
func ChooseBias64(bits []uint64) (bias int16, ok bool) {
	// Branch-free scan, as in ChooseBias.
	minE, maxE := 0x7FF, 0
	special := 0
	if len(bits) == 128 && simd.Enabled() {
		p := simd.ChooseBiasScan64((*[128]uint64)(bits))
		minE, maxE = int(p&0xFFF), int(p>>12)&0xFFF
		special = int(p >> 24)
	} else {
		for _, b := range bits {
			e := ieeeExpBits64(b)
			special |= (e + 1) >> 11            // 1 iff e == 0x7FF
			lo := e | (((e - 1) >> 11) & 0x7FF) // 0x7FF iff e == 0
			minE = min(minE, lo)
			maxE = max(maxE, e)
		}
	}
	if special != 0 || maxE == 0 {
		return 0, false
	}
	target := TargetExp64 + 1023
	d := target - maxE
	if d == 0 {
		return 0, true
	}
	if d > 1023 || d < -1024 {
		return 0, false
	}
	if minE+d < 1 || maxE+d > 2046 {
		return 0, false
	}
	return int16(d), true
}

// ApplyBias64 shifts a double's exponent by bias (multiplies by 2^bias).
func ApplyBias64(bits uint64, bias int16) uint64 {
	if bias == 0 || IsDenormalOrZero64(bits) || IsSpecial64(bits) {
		return bits
	}
	e := ieeeExpBits64(bits) + int(bias)
	return bits&^(uint64(0x7FF)<<52) | uint64(e)<<52
}

// RemoveBias64 is the inverse of ApplyBias64.
func RemoveBias64(bits uint64, bias int16) uint64 { return ApplyBias64(bits, -bias) }

// FloatToFixed64 converts a biased double to Q31.32 with saturation.
func FloatToFixed64(bits uint64) int64 {
	if IsDenormalOrZero64(bits) {
		return 0
	}
	f := math.Float64frombits(bits)
	v := f * (1 << FracBits64)
	switch {
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	}
	return roundFixed64(v)
}

// roundFixed64 rounds to the nearest integer, ties to even, exactly like
// math.RoundToEven. Magnitudes below 2^51 use the add-a-magic-constant
// trick (see roundMagic); from 2^52 up the value has no fractional part
// (the ulp is ≥ 1), so plain truncation is already exact — that is where
// a biased block's largest magnitudes land (TargetExp64 steers them to
// ~2^60 in Q31.32). Only the narrow [2^51, 2^52) band, where ties exist
// but the magic sum would lose a bit, needs the library routine.
func roundFixed64(v float64) int64 {
	a := math.Abs(v)
	if a < 1<<51 {
		return int64((v + roundMagic) - roundMagic)
	}
	if a < 1<<52 {
		return int64(math.RoundToEven(v))
	}
	return int64(v)
}

// FixedToFloat64 converts Q31.32 back to a (biased) double bit pattern.
func FixedToFloat64(v int64) uint64 {
	return math.Float64bits(float64(v) / (1 << FracBits64))
}

// FloatsToFixed64 is the flat-pass form of ApplyBias64 + FloatToFixed64
// over a whole block, bit-identical to the per-value calls. dst must be
// at least as long as src.
//
// Like FloatsToFixed, the common case folds the bias into one exact
// power-of-two scale: both formulations compute the correctly rounded
// product of the same real value orig·2^(bias+FracBits64), so they agree
// bit for bit (with bias 0 the fused product is FloatToFixed64's own).
// Values whose (original or biased) exponent leaves the normal range
// fall back to the per-value reference path, as does the whole sweep
// when 2^(bias+FracBits64) itself is not a normal float64.
func FloatsToFixed64(dst []int64, src []uint64, bias int16) {
	dst = dst[:len(src)]
	se := 1023 + int(bias) + FracBits64
	if se < 1 || se > 2046 {
		for i, b := range src {
			dst[i] = FloatToFixed64(ApplyBias64(b, bias))
		}
		return
	}
	scale := math.Float64frombits(uint64(se) << 52)
	if len(src) == 128 && simd.Enabled() {
		// Whole-block AVX-512 sweep (bit-identical; see internal/simd). A
		// false return means some lane needs the reference path below.
		if simd.FloatsToFixedScaled64((*[128]int64)(dst), (*[128]uint64)(src), int64(bias), scale) {
			return
		}
	}
	for i, b := range src {
		e := int(b>>52) & 0x7FF
		if eb := e + int(bias); e == 0 || e == 0x7FF || eb < 1 || eb > 2046 {
			dst[i] = FloatToFixed64(ApplyBias64(b, bias))
			continue
		}
		v := math.Float64frombits(b) * scale
		switch {
		case v >= math.MaxInt64:
			dst[i] = math.MaxInt64
		case v <= math.MinInt64:
			dst[i] = math.MinInt64
		default:
			dst[i] = roundFixed64(v)
		}
	}
}

// FixedToFloats64 is the flat-pass inverse: dst[i] =
// RemoveBias64(FixedToFloat64(src[i]), bias), bit-identical to the
// per-value calls. dst must be at least as long as src.
func FixedToFloats64(dst []uint64, src []int64, bias int16) {
	dst = dst[:len(src)]
	nb := -int(bias)
	for i, v := range src {
		b := math.Float64bits(float64(v) / (1 << FracBits64))
		if nb != 0 {
			if e := ieeeExpBits64(b); e != 0 && e != 0x7FF {
				b = b&^(uint64(0x7FF)<<52) | uint64(e+nb)<<52
			}
		}
		dst[i] = b
	}
}

// Average16x64 averages exactly 16 Q31.32 values. The sum of 16 Q31.32
// values fits in Int64 plus 4 bits of headroom guaranteed by TargetExp64.
func Average16x64(vals []int64) int64 {
	var sum int64
	for _, v := range vals {
		sum += v >> 4 // pre-shift to avoid overflow; loses 4 LSBs
	}
	return sum
}
