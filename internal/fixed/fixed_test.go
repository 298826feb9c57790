package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func bitsOf(f float32) uint32  { return math.Float32bits(f) }
func floatOf(b uint32) float32 { return math.Float32frombits(b) }
func blockOf(fs ...float32) []uint32 {
	out := make([]uint32, len(fs))
	for i, f := range fs {
		out[i] = bitsOf(f)
	}
	return out
}

func TestIsSpecial(t *testing.T) {
	cases := []struct {
		f    float32
		want bool
	}{
		{float32(math.NaN()), true},
		{float32(math.Inf(1)), true},
		{float32(math.Inf(-1)), true},
		{0, false},
		{1.5, false},
		{-math.MaxFloat32, false},
	}
	for _, c := range cases {
		if got := IsSpecial(bitsOf(c.f)); got != c.want {
			t.Errorf("IsSpecial(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestIsDenormalOrZero(t *testing.T) {
	if !IsDenormalOrZero(bitsOf(0)) {
		t.Error("zero should be denormal-or-zero")
	}
	if !IsDenormalOrZero(0x80000000) {
		t.Error("-0 should be denormal-or-zero")
	}
	if !IsDenormalOrZero(1) { // smallest denormal
		t.Error("denormal should be denormal-or-zero")
	}
	if IsDenormalOrZero(bitsOf(1.0)) {
		t.Error("1.0 is normal")
	}
}

func TestChooseBiasSteersToTarget(t *testing.T) {
	blk := blockOf(1e-3, 2e-3, 4e-3)
	bias, ok := ChooseBias(blk)
	if !ok {
		t.Fatal("expected biasing to succeed")
	}
	// After biasing, the max magnitude must have exponent TargetExp.
	maxBits := ApplyBias(bitsOf(4e-3), bias)
	e := int(maxBits>>23)&0xFF - 127
	if e != TargetExp {
		t.Errorf("biased max exponent = %d, want %d", e, TargetExp)
	}
}

func TestChooseBiasZeroWhenInRange(t *testing.T) {
	blk := blockOf(float32(math.Exp2(TargetExp)), 1, 2)
	bias, ok := ChooseBias(blk)
	if !ok || bias != 0 {
		t.Errorf("ChooseBias = (%d, %v), want (0, true)", bias, ok)
	}
}

func TestChooseBiasRejectsSpecials(t *testing.T) {
	blk := blockOf(1, 2, float32(math.NaN()))
	if _, ok := ChooseBias(blk); ok {
		t.Error("block with NaN must not be biased")
	}
	blk = blockOf(1, float32(math.Inf(1)))
	if _, ok := ChooseBias(blk); ok {
		t.Error("block with Inf must not be biased")
	}
}

func TestChooseBiasRejectsAllZero(t *testing.T) {
	blk := blockOf(0, 0, 0)
	if _, ok := ChooseBias(blk); ok {
		t.Error("all-zero block has nothing to bias")
	}
}

func TestChooseBiasRejectsWideRange(t *testing.T) {
	// A block spanning nearly the whole exponent range cannot be biased
	// without under/overflow.
	blk := blockOf(1e38, 2e-38)
	if _, ok := ChooseBias(blk); ok {
		t.Error("block spanning full exponent range must not be biased")
	}
}

func TestApplyRemoveBiasRoundTrip(t *testing.T) {
	vals := []float32{1.5, -2.25, 3.14159e-4, 1234.5, -9.9e-3}
	for _, f := range vals {
		blk := blockOf(f)
		bias, ok := ChooseBias(blk)
		if !ok {
			t.Fatalf("bias failed for %v", f)
		}
		b := ApplyBias(bitsOf(f), bias)
		back := RemoveBias(b, bias)
		if back != bitsOf(f) {
			t.Errorf("bias round trip of %v: got %v", f, floatOf(back))
		}
	}
}

func TestApplyBiasZeroPassthrough(t *testing.T) {
	if got := ApplyBias(bitsOf(0), 10); got != bitsOf(0) {
		t.Errorf("ApplyBias(0) changed the value: %#x", got)
	}
}

func TestApplyBiasMultipliesByPow2(t *testing.T) {
	f := float32(3.5)
	got := floatOf(ApplyBias(bitsOf(f), 3))
	if got != f*8 {
		t.Errorf("ApplyBias(3.5, 3) = %v, want %v", got, f*8)
	}
	got = floatOf(ApplyBias(bitsOf(f), -2))
	if got != f/4 {
		t.Errorf("ApplyBias(3.5, -2) = %v, want %v", got, f/4)
	}
}

func TestFloatToFixedExactValues(t *testing.T) {
	cases := []struct {
		f    float32
		want int32
	}{
		{0, 0},
		{1, 1 << FracBits},
		{-1, -(1 << FracBits)},
		{0.5, 1 << (FracBits - 1)},
		{2.25, 9 << (FracBits - 2)},
	}
	for _, c := range cases {
		if got := FloatToFixed(bitsOf(c.f)); got != c.want {
			t.Errorf("FloatToFixed(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestFloatToFixedSaturates(t *testing.T) {
	if got := FloatToFixed(bitsOf(1e20)); got != math.MaxInt32 {
		t.Errorf("positive overflow: got %d", got)
	}
	if got := FloatToFixed(bitsOf(-1e20)); got != math.MinInt32 {
		t.Errorf("negative overflow: got %d", got)
	}
}

func TestFixedToFloatRoundTrip(t *testing.T) {
	// Values representable exactly in Q15.16 must round-trip exactly.
	for _, f := range []float32{0, 1, -1, 0.5, -0.25, 1000.75, -32767.5} {
		fx := FloatToFixed(bitsOf(f))
		back := floatOf(FixedToFloat(fx))
		if back != f {
			t.Errorf("round trip %v -> %d -> %v", f, fx, back)
		}
	}
}

func TestRoundTripErrorBoundProperty(t *testing.T) {
	// Property: for any normal float in the biased range, the
	// fixed-point round trip error is at most half a ULP of the fixed
	// format (2^-17 absolute).
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		if v > 4000 || v < -4000 { // stay well inside Q15.16
			return true
		}
		fx := FloatToFixed(bitsOf(v))
		back := floatOf(FixedToFloat(fx))
		diff := math.Abs(float64(back) - float64(v))
		return diff <= 1.0/(1<<(FracBits+1))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBiasedRoundTripProperty(t *testing.T) {
	// Property: bias+convert+back+unbias keeps relative error below
	// 2^-12 for blocks of same-magnitude values (the compressor's
	// outlier threshold is far looser than this).
	f := func(seed uint32) bool {
		base := float32(math.Exp2(float64(int(seed%60) - 30)))
		blk := []uint32{bitsOf(base), bitsOf(base * 1.5), bitsOf(base * 0.75)}
		bias, ok := ChooseBias(blk)
		if !ok {
			return false
		}
		for _, b := range blk {
			orig := float64(floatOf(b))
			fx := FloatToFixed(ApplyBias(b, bias))
			back := float64(floatOf(RemoveBias(FixedToFloat(fx), bias)))
			if orig == 0 {
				continue
			}
			if math.Abs(back-orig)/math.Abs(orig) > math.Exp2(-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAverage16(t *testing.T) {
	vals := make([]int32, 16)
	for i := range vals {
		vals[i] = int32(i * 16)
	}
	// sum = 16*(0+15)*16/2 / 16 = 120
	if got := Average16(vals); got != 120 {
		t.Errorf("Average16 = %d, want 120", got)
	}
}

func TestAverage16Negative(t *testing.T) {
	vals := make([]int32, 16)
	for i := range vals {
		vals[i] = -1600
	}
	if got := Average16(vals); got != -1600 {
		t.Errorf("Average16 of constant -1600 = %d", got)
	}
}

func TestAverage16NoOverflow(t *testing.T) {
	vals := make([]int32, 16)
	for i := range vals {
		vals[i] = math.MaxInt32
	}
	if got := Average16(vals); got != math.MaxInt32 {
		t.Errorf("Average16 of MaxInt32 = %d", got)
	}
}

func TestAverageConstantProperty(t *testing.T) {
	// Property: the average of a constant sub-block is the constant.
	f := func(v int32) bool {
		vals := make([]int32, 16)
		for i := range vals {
			vals[i] = v
		}
		return Average16(vals) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
