package simd

import (
	"math"
	"math/rand"
	"testing"
)

// The tests below pin the fp32 block kernels to the standalone scalar
// references in encode_test.go.
// Random blocks cover the full bit-pattern space — NaN, ±Inf, ±0,
// denormals, both signs, boundary exponents — plus crafted mantissa
// deltas exactly at the outlier limit.

func TestErrCheckRecon32MatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(1))
	var vals [256]uint32
	var recon [256]int32
	for round := 0; round < 2000; round++ {
		nb := int32(rng.Intn(256) - 128)
		lim := uint32(1) << (23 - (1 + rng.Intn(23)))
		for i := range recon {
			switch rng.Intn(4) {
			case 0:
				recon[i] = int32(rng.Uint32())
			case 1:
				recon[i] = 0
			default:
				recon[i] = int32(rng.Intn(1<<22) - 1<<21)
			}
			if rng.Intn(2) == 0 {
				// Derive the original from the reconstruction with a
				// controlled mantissa delta: hits the d<lim boundary.
				a := math.Float32bits(float32(recon[i]) * (1.0 / (1 << 16)))
				if e := int(a>>23) & 0xFF; e != 0 && e != 0xFF {
					a = a&^uint32(0xFF<<23) | uint32(e+int(nb))<<23
				}
				d := [...]uint32{0, 1, lim - 1, lim, lim + 1, 2 * lim}[rng.Intn(6)]
				m := a & 0x7FFFFF
				if rng.Intn(2) == 0 && m >= d {
					m -= d
				} else if m+d <= 0x7FFFFF {
					m += d
				}
				vals[i] = a&^uint32(0x7FFFFF) | m
			} else {
				vals[i] = randBits(rng)
			}
		}
		var bmWant, bmGot [32]byte
		want := scalarErrCheck(&vals, &recon, nb, lim, &bmWant)
		got := ErrCheckRecon32(&vals, &recon, &bmGot, nb, lim)
		if got != want {
			t.Fatalf("round %d (nb=%d lim=%#x): dSum = %d, want %d", round, nb, lim, got, want)
		}
		for i := range bmGot {
			if bmGot[i] != bmWant[i] {
				t.Fatalf("round %d (nb=%d lim=%#x): bitmap[%d] = %08b, want %08b (vals[%d]=%#x recon=%d)",
					round, nb, lim, i, bmGot[i], bmWant[i], i*8, vals[i*8], recon[i*8])
			}
		}
	}
}

func TestFixedToFloatsBitsMatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(6))
	var recon [256]int32
	var want, got [256]uint32
	for round := 0; round < 2000; round++ {
		nb := int32(rng.Intn(256) - 128)
		if round == 0 {
			nb = 0 // the no-surgery fast case must still agree
		}
		for i := range recon {
			recon[i] = randInt32(rng)
		}
		scalarFixedToFloatsBits(&want, &recon, nb)
		FixedToFloatsBits(&got, &recon, nb)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d (nb=%d): dst[%d] = %#x, want %#x (recon=%d)",
					round, nb, i, got[i], want[i], recon[i])
			}
		}
	}
}

func TestFixedToFloatsBits64MatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(8))
	var recon [128]int64
	var want, got [128]uint64
	check := func(label string, nb int64) {
		t.Helper()
		scalarFixedToFloatsBits64(&want, &recon, nb)
		FixedToFloatsBits64(&got, &recon, nb)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (nb=%d): dst[%d] = %#x, want %#x (recon=%d)",
					label, nb, i, got[i], want[i], recon[i])
			}
		}
	}
	for round := 0; round < 2000; round++ {
		nb := int64(rng.Intn(2048) - 1024)
		if round == 0 {
			nb = 0 // the no-surgery fast case must still agree
		}
		for i := range recon {
			recon[i] = randInt64(rng)
		}
		check("random", nb)
	}
	// All zeros (exponent 0: every lane passes through) and ±max.
	recon = [128]int64{}
	check("zeros", 17)
	for i := range recon {
		recon[i] = [...]int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}[i%4]
	}
	check("extremes", -300)
	// A Q31.32 value converts to an exponent in [1023-32, 1023+31]; sweep
	// every un-bias that carries one of those onto 0 or 0x7FF, or past
	// either end of the field (the reinsertion then wraps exactly like
	// the scalar shift does).
	for i := range recon {
		recon[i] = int64(1) << uint(i%63)
		if i >= 64 {
			recon[i] = -recon[i]
		}
	}
	for e := 1023 - 32; e <= 1023+31; e++ {
		for _, target := range []int{-1, 0, 1, 0x7FE, 0x7FF, 0x800} {
			check("edge", int64(target-e))
		}
	}
}

func TestFloatsToFixedScaledMatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(2))
	var src [256]uint32
	var want, got [256]int32
	for round := 0; round < 2000; round++ {
		bias := int32(rng.Intn(256) - 128)
		se := 1023 + int(bias) + 16
		if se < 1 || se > 2046 {
			continue // the caller never builds a non-normal scale
		}
		scale := math.Float64frombits(uint64(se) << 52)
		allGood := rng.Intn(2) == 0
		for i := range src {
			src[i] = randBits(rng)
			if allGood {
				// Constrain to lanes the vector path accepts, so the
				// ok=true lane comparison is exercised often.
				e := int(src[i]>>23) & 0xFF
				if eb := e + int(bias); e == 0xFF || eb < 1 || eb > 254 {
					src[i] = 0
				}
			}
		}
		okWant := scalarFloatsToFixed(&want, &src, bias, scale)
		okGot := FloatsToFixedScaled(&got, &src, bias, scale)
		if okGot != okWant {
			t.Fatalf("round %d (bias=%d): ok = %v, want %v", round, bias, okGot, okWant)
		}
		if !okWant {
			continue // dst undefined: the caller redoes the block scalar
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d (bias=%d): dst[%d] = %d, want %d (src=%#x)",
					round, bias, i, got[i], want[i], src[i])
			}
		}
	}
}

// ---- AVX-512-only block kernels ----
//
// Scalar references restating the loops in internal/fixed.ChooseBias and
// internal/compress downsample, applied to full random int32/uint32
// blocks (the kernels must agree for every input pattern, not only
// reachable summaries). The interpolation oracles are in
// interpolate_test.go, which the benchmarks share.

func scalarDownsample1D(fx *[256]int32, sum *[16]int32) {
	for s := 0; s < 16; s++ {
		var t int64
		for _, v := range fx[s*16 : s*16+16] {
			t += int64(v)
		}
		sum[s] = int32(t >> 4)
	}
}

func scalarDownsample2D(fx *[256]int32, sum *[16]int32) {
	for R := 0; R < 4; R++ {
		for C := 0; C < 4; C++ {
			var s int64
			base := 64*R + 4*C
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					s += int64(fx[base+16*r+c])
				}
			}
			sum[R*4+C] = int32(s >> 4)
		}
	}
}

// randInt32 mixes full-range, small, and boundary values.
func randInt32(rng *rand.Rand) int32 {
	switch rng.Intn(4) {
	case 0:
		return int32(rng.Uint32())
	case 1:
		return int32(rng.Intn(1<<22) - 1<<21)
	case 2:
		return [...]int32{0, 1, -1, math.MaxInt32, math.MinInt32}[rng.Intn(5)]
	default:
		return int32(rng.Intn(65536) - 32768)
	}
}

func TestChooseBiasScanMatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(3))
	var bits [256]uint32
	for round := 0; round < 2000; round++ {
		for i := range bits {
			bits[i] = randBits(rng)
		}
		if rng.Intn(4) == 0 {
			// Homogeneous normal block: exercises minE==maxE paths.
			e := uint32(1 + rng.Intn(254))
			for i := range bits {
				bits[i] = rng.Uint32()&0x807FFFFF | e<<23
			}
		}
		if got, want := ChooseBiasScan(&bits), scalarChooseBiasScan(&bits); got != want {
			t.Fatalf("round %d: ChooseBiasScan = %#x, want %#x", round, got, want)
		}
	}
}

func TestDownsampleMatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(5))
	var fx [256]int32
	var got, want [16]int32
	for round := 0; round < 2000; round++ {
		for i := range fx {
			fx[i] = randInt32(rng)
		}
		scalarDownsample1D(&fx, &want)
		Downsample1D(&fx, &got)
		if got != want {
			t.Fatalf("round %d: Downsample1D = %v, want %v", round, got, want)
		}
		scalarDownsample2D(&fx, &want)
		Downsample2D(&fx, &got)
		if got != want {
			t.Fatalf("round %d: Downsample2D = %v, want %v", round, got, want)
		}
	}
}
