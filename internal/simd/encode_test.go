package simd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Scalar references for the encode-side block kernels — ChooseBiasScan,
// FloatsToFixedScaled and ErrCheckRecon32, and their fp64 twins — that
// restate, loop for loop, the code they replace in internal/fixed and
// internal/compress (those packages call into this one, so the loops are
// duplicated here rather than imported). They are the oracles of the
// ...MatchesScalar tests and the FuzzEncodeKernels targets, and the ...Scalar
// benchmark twins scripts/bench.sh gates each kernel against, so they
// build on every target.

const roundMagic = 6755399441055744.0 // 1.5×2^52, as in internal/fixed

func scalarErrCheck(vals *[256]uint32, recon *[256]int32, nb int32, lim uint32, bm *[32]byte) int64 {
	var dSum int64
	for i := 0; i < 256; i++ {
		a := math.Float32bits(float32(recon[i]) * (1.0 / (1 << 16)))
		if e := int(a>>23) & 0xFF; e != 0 && e != 0xFF {
			a = a&^uint32(0xFF<<23) | uint32(e+int(nb))<<23
		}
		o := vals[i]
		outlier := true
		if (o^a)&0xFF800000 == 0 {
			if eo := o >> 23 & 0xFF; eo-1 < 0xFE {
				mo, ma := o&0x7FFFFF, a&0x7FFFFF
				d := mo - ma
				if ma > mo {
					d = ma - mo
				}
				if d < lim {
					dSum += int64(d)
					outlier = false
				}
			} else if o == a || eo == 0 {
				outlier = false
			}
		} else if o&0x7F800000 == 0 && a&0x7F800000 == 0 {
			outlier = false
		}
		if outlier {
			bm[i>>3] |= 1 << (i & 7)
		}
	}
	return dSum
}

func scalarFloatsToFixed(dst *[256]int32, src *[256]uint32, bias int32, scale float64) bool {
	ok := true
	for i, b := range src {
		e := int(b>>23) & 0xFF
		if e == 0 {
			dst[i] = 0
			continue
		}
		if eb := e + int(bias); e == 0xFF || eb < 1 || eb > 254 {
			ok = false
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
	return ok
}

func scalarChooseBiasScan(bits *[256]uint32) uint32 {
	minE, maxE := 0xFF, 0
	special := 0
	for _, b := range bits {
		e := int(b>>23) & 0xFF
		special |= (e + 1) >> 8
		lo := e | (((e - 1) >> 8) & 0xFF)
		minE = min(minE, lo)
		maxE = max(maxE, e)
	}
	p := uint32(minE) | uint32(maxE)<<8
	if special != 0 {
		p |= 1 << 16
	}
	return p
}

// scalarChooseBiasScan64 is fixed.ChooseBias64's scan, packed the way
// ChooseBiasScan64 returns it.
func scalarChooseBiasScan64(bits *[128]uint64) uint32 {
	minE, maxE := 0x7FF, 0
	special := 0
	for _, b := range bits {
		e := int(b>>52) & 0x7FF
		special |= (e + 1) >> 11
		lo := e | (((e - 1) >> 11) & 0x7FF)
		minE = min(minE, lo)
		maxE = max(maxE, e)
	}
	return uint32(minE) | uint32(maxE)<<12 | uint32(special)<<24
}

// scalarFloatsToFixed64 is fixed.FloatsToFixed64's fused loop; a lane it
// would send down the per-value reference path makes it report false.
func scalarFloatsToFixed64(dst *[128]int64, src *[128]uint64, bias int64, scale float64) bool {
	ok := true
	for i, b := range src {
		e := int64(b>>52) & 0x7FF
		if e == 0 {
			dst[i] = 0
			continue
		}
		if eb := e + bias; e == 0x7FF || eb < 1 || eb > 2046 {
			ok = false
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
	return ok
}

// roundFixed64 is fixed.roundFixed64.
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

// scalarErrCheck64 is compress.errCheckRecon64's loop: it sets the
// bitmap and returns both the integer sum of the accepted deltas and the
// index-order float sum of float64(d)/2^52 the compressor reports.
func scalarErrCheck64(vals *[128]uint64, recon *[128]int64, nb int64, lim uint64, bm *[16]byte) (dSum int64, errSum float64) {
	const expMask = uint64(0x7FF) << 52
	for i := 0; i < 128; i++ {
		a := math.Float64bits(float64(recon[i]) / (1 << 32))
		if e := int64(a>>52) & 0x7FF; nb != 0 && e != 0 && e != 0x7FF {
			a = a&^expMask | uint64(e+nb)<<52
		}
		o := vals[i]
		outlier := true
		if (o^a)&(uint64(0xFFF)<<52) == 0 {
			if eo := o >> 52 & 0x7FF; eo-1 < 0x7FE {
				mo, ma := o&(1<<52-1), a&(1<<52-1)
				d := mo - ma
				if ma > mo {
					d = ma - mo
				}
				if d < lim {
					dSum += int64(d)
					errSum += float64(d) / (1 << 52)
					outlier = false
				}
			} else if o == a || eo == 0 {
				outlier = false
			}
		} else if o&expMask == 0 && a&expMask == 0 {
			outlier = false
		}
		if outlier {
			bm[i>>3] |= 1 << (i & 7)
		}
	}
	return dSum, errSum
}

// scalarFixedToFloatsBits is fixed.FixedToFloats.
func scalarFixedToFloatsBits(dst *[256]uint32, recon *[256]int32, nb int32) {
	for i, v := range recon {
		b := math.Float32bits(float32(v) * (1.0 / (1 << 16)))
		if nb != 0 {
			if e := int(b>>23) & 0xFF; e != 0 && e != 0xFF {
				b = b&^uint32(0xFF<<23) | uint32(e+int(nb))<<23
			}
		}
		dst[i] = b
	}
}

// scalarFixedToFloatsBits64 is fixed.FixedToFloats64.
func scalarFixedToFloatsBits64(dst *[128]uint64, recon *[128]int64, nb int64) {
	for i, v := range recon {
		b := math.Float64bits(float64(v) / (1 << 32))
		if nb != 0 {
			if e := int(b>>52) & 0x7FF; e != 0 && e != 0x7FF {
				b = b&^(uint64(0x7FF)<<52) | uint64(e+int(nb))<<52
			}
		}
		dst[i] = b
	}
}

// randBits draws from the full pattern space with the interesting
// categories over-represented.
func randBits(rng *rand.Rand) uint32 {
	switch rng.Intn(8) {
	case 0:
		return rng.Uint32() // anything, including NaN/Inf
	case 1:
		return rng.Uint32() & 0x807FFFFF // ±zero/denormal
	case 2:
		return 0x7F800000 | rng.Uint32()&0x80000000 // ±Inf
	case 3:
		return 0x7FC00000 | rng.Uint32()&0x3FFFFF // NaN
	case 4:
		return 0 // +0
	default:
		// Normal number near the fixed-point range.
		e := uint32(112 + rng.Intn(32))
		return rng.Uint32()&0x807FFFFF | e<<23
	}
}

// randBits64 is randBits for doubles.
func randBits64(rng *rand.Rand) uint64 {
	switch rng.Intn(8) {
	case 0:
		return rng.Uint64()
	case 1:
		return rng.Uint64() & 0x800FFFFFFFFFFFFF // ±zero/denormal
	case 2:
		return 0x7FF0000000000000 | rng.Uint64()&(1<<63) // ±Inf
	case 3:
		return 0x7FF8000000000000 | rng.Uint64()&(1<<51-1) // NaN
	case 4:
		return 0
	default:
		e := uint64(1023 - 40 + rng.Intn(80))
		return rng.Uint64()&0x800FFFFFFFFFFFFF | e<<52
	}
}

// randInt64 mixes full-range, small, and boundary values, including
// magnitudes past 2^53 where the int64→float64 conversion rounds.
func randInt64(rng *rand.Rand) int64 {
	switch rng.Intn(5) {
	case 0:
		return int64(rng.Uint64())
	case 1:
		return rng.Int63n(1<<40) - 1<<39
	case 2:
		return [...]int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1, -(1<<53 + 1)}[rng.Intn(7)]
	case 3:
		// Round-to-even ties just above 2^53.
		return (1<<53 + int64(rng.Intn(8))) << uint(rng.Intn(10))
	default:
		return int64(rng.Intn(65536) - 32768)
	}
}

// scale64 is the power of two FloatsToFixed64 folds a bias into,
// 2^(bias+32), and whether it is a normal float64 (the caller never
// builds any other).
func scale64(bias int64) (float64, bool) {
	se := 1023 + bias + 32
	return math.Float64frombits(uint64(se) << 52), se >= 1 && se <= 2046
}

// checkEncodeKernels64 holds all three fp64 encode kernels to their
// scalar forms on one block, and the compressor's error sum to the
// exactness argument it rests on: below 2^53 quanta, the scaled integer
// sum is the index-order float sum bit for bit.
func checkEncodeKernels64(t testing.TB, label string, vals *[128]uint64, recon *[128]int64, bias int64, lim uint64) {
	t.Helper()
	if got, want := ChooseBiasScan64(vals), scalarChooseBiasScan64(vals); got != want {
		t.Fatalf("%s: ChooseBiasScan64 = %#x, want %#x", label, got, want)
	}
	if scale, ok := scale64(bias); ok {
		var got, want [128]int64
		okWant := scalarFloatsToFixed64(&want, vals, bias, scale)
		if okGot := FloatsToFixedScaled64(&got, vals, bias, scale); okGot != okWant {
			t.Fatalf("%s (bias=%d): FloatsToFixedScaled64 ok = %v, want %v", label, bias, okGot, okWant)
		}
		if okWant && got != want {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s (bias=%d): FloatsToFixedScaled64 dst[%d] = %d, want %d (src=%#x)",
						label, bias, i, got[i], want[i], vals[i])
				}
			}
		}
	}
	var bmGot, bmWant [16]byte
	nb := -bias
	dWant, errSum := scalarErrCheck64(vals, recon, nb, lim, &bmWant)
	dGot := ErrCheckRecon64(vals, recon, &bmGot, nb, lim)
	if dGot != dWant || bmGot != bmWant {
		t.Fatalf("%s (nb=%d lim=%#x): ErrCheckRecon64 = (%d, %x), want (%d, %x)", label, nb, lim, dGot, bmGot, dWant, bmWant)
	}
	if dGot < 1<<53 && float64(dGot)/(1<<52) != errSum {
		t.Fatalf("%s: Σd = %d < 2^53 but Σd/2^52 = %v, index-order sum %v", label, dGot, float64(dGot)/(1<<52), errSum)
	}
}

func TestChooseBiasScan64MatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(11))
	var bits [128]uint64
	for round := 0; round < 2000; round++ {
		for i := range bits {
			bits[i] = randBits64(rng)
		}
		if rng.Intn(4) == 0 {
			// Homogeneous normal block: exercises minE==maxE paths.
			e := uint64(1 + rng.Intn(2046))
			for i := range bits {
				bits[i] = rng.Uint64()&0x800FFFFFFFFFFFFF | e<<52
			}
		}
		if got, want := ChooseBiasScan64(&bits), scalarChooseBiasScan64(&bits); got != want {
			t.Fatalf("round %d: ChooseBiasScan64 = %#x, want %#x", round, got, want)
		}
	}
}

func TestFloatsToFixedScaled64MatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(12))
	var src [128]uint64
	var want, got [128]int64
	for round := 0; round < 4000; round++ {
		bias := int64(rng.Intn(2200) - 1100)
		if round%4 == 0 {
			bias = int64(rng.Intn(64) - 32) // near the codec's biases, and 0
		}
		scale, ok := scale64(bias)
		if !ok {
			continue
		}
		mode := rng.Intn(4)
		for i := range src {
			src[i] = randBits64(rng)
			switch mode {
			case 0, 2:
				// Constrain to lanes the kernel accepts, so ok=true lanes
				// are compared often.
				e := int64(src[i]>>52) & 0x7FF
				if eb := e + bias; e == 0x7FF || eb < 1 || eb > 2046 {
					src[i] = 0
				}
				// Mode 2 adds, now and then, a normal lane whose biased
				// exponent sits at an edge of the normal range (e+bias ∈
				// {0, 1, 2046, 2047}), which alone decides ok.
				if e := [...]int64{0, 1, 2046, 2047}[rng.Intn(4)] - bias; mode == 2 && e >= 1 && e <= 2046 && rng.Intn(64) == 0 {
					src[i] = src[i]&0x800FFFFFFFFFFFFF | uint64(e)<<52
				}
			case 1:
				// Scaled magnitudes around the rounding bands and the
				// saturation edge: ties x.5 below 2^52, and values from
				// 2^50 to past 2^63.
				var v float64
				if rng.Intn(2) == 0 {
					v = float64(rng.Int63n(1<<52-1<<50)+1<<50) + 0.5
				} else {
					v = math.Ldexp(1+rng.Float64(), 50+rng.Intn(15))
				}
				if rng.Intn(2) == 0 {
					v = -v
				}
				if f := v / scale; f != 0 && !math.IsInf(f, 0) && math.Float64bits(f)>>52&0x7FF != 0 {
					src[i] = math.Float64bits(f)
				} else {
					src[i] = 0
				}
			}
		}
		okWant := scalarFloatsToFixed64(&want, &src, bias, scale)
		okGot := FloatsToFixedScaled64(&got, &src, bias, scale)
		if okGot != okWant {
			t.Fatalf("round %d (bias=%d): ok = %v, want %v", round, bias, okGot, okWant)
		}
		if !okWant {
			continue // dst undefined: the caller redoes the block scalar
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d (bias=%d): dst[%d] = %d, want %d (src=%#x)", round, bias, i, got[i], want[i], src[i])
			}
		}
	}
}

func TestErrCheckRecon64MatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(13))
	var vals [128]uint64
	var recon [128]int64
	var a [128]uint64
	for round := 0; round < 4000; round++ {
		bias := int64(rng.Intn(2048) - 1024)
		if round%4 == 0 {
			bias = int64(rng.Intn(64) - 32)
		}
		lim := uint64(1) << (52 - (1 + rng.Intn(52)))
		for i := range recon {
			switch rng.Intn(4) {
			case 0:
				recon[i] = randInt64(rng)
			case 1:
				recon[i] = 0
			default:
				recon[i] = rng.Int63n(1<<62) - 1<<61
			}
		}
		scalarFixedToFloatsBits64(&a, &recon, -bias)
		for i := range vals {
			if rng.Intn(2) == 0 {
				vals[i] = randBits64(rng)
				continue
			}
			// Derive the original from the reconstruction with a
			// controlled mantissa delta: hits the d<lim boundary.
			d := [...]uint64{0, 1, lim - 1, lim, lim + 1, 2 * lim}[rng.Intn(6)]
			m := a[i] & (1<<52 - 1)
			if rng.Intn(2) == 0 && m >= d {
				m -= d
			} else if m+d < 1<<52 {
				m += d
			}
			vals[i] = a[i]&^(1<<52-1) | m
		}
		checkEncodeKernels64(t, "random", &vals, &recon, bias, lim)
	}
}

// tile64 reads data as little-endian words, repeating it to fill the
// block (all zeros when data is empty).
func tile64(data []byte) (blk [128]uint64) {
	for i := range blk {
		for j := 0; j < 8 && len(data) > 0; j++ {
			blk[i] |= uint64(data[(i*8+j)%len(data)]) << (8 * j)
		}
	}
	return blk
}

func wordBytes(words ...uint64) []byte {
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// FuzzEncodeKernels64 holds ChooseBiasScan64, FloatsToFixedScaled64 and
// ErrCheckRecon64 to their scalar forms on arbitrary blocks: vals and
// recon tile their bytes, the exponent bias and the comparator's
// mantissa bits come from the last two arguments.
func FuzzEncodeKernels64(f *testing.F) {
	if !Enabled() {
		f.Skip("AVX-512 not available")
	}
	one := uint64(1) << 32 // Q31.32 1.0
	// ±0 and ±denormals, against zero and tiny reconstructions.
	f.Add(wordBytes(0, 1<<63, 1, 1<<63|1, 0xFFFFFFFFFFFFF), wordBytes(0, 1, 1<<64-1), int16(5), uint8(5))
	// NaN and ±Inf among normals: the scan's flag, the conversion's false.
	f.Add(wordBytes(0x7FF8000000000001, 0x7FF0000000000000, 0xFFF0000000000000, math.Float64bits(1.5)), wordBytes(one, 3*one/2), int16(0), uint8(5))
	// Exponents at both bias edges: e+bias = 1 and 0, 2046 and 2047.
	f.Add(wordBytes(101<<52, 100<<52, 1<<63|101<<52|7), wordBytes(one), int16(-100), uint8(3))
	f.Add(wordBytes(1946<<52, 1947<<52, 1<<63|1946<<52|9), wordBytes(one), int16(100), uint8(3))
	// Lanes that scale to 2^63 and past it (MaxInt64), and to −2^63.
	f.Add(wordBytes(math.Float64bits(1<<31), math.Float64bits(1<<40), math.Float64bits(-(1<<31)), math.Float64bits(-(1<<45))), wordBytes(one), int16(0), uint8(1))
	// Every delta near lim = 2^51: Σd ≥ 2^53, where only the scalar
	// index-order sum is exact and the compressor takes the fallback.
	f.Add(wordBytes(math.Float64bits(1.4)), wordBytes(one), int16(0), uint8(0))
	f.Fuzz(func(t *testing.T, valBytes, reconBytes []byte, bias int16, n uint8) {
		vals := tile64(valBytes)
		r := tile64(reconBytes)
		var recon [128]int64
		for i, w := range r {
			recon[i] = int64(w)
		}
		lim := uint64(1) << (52 - (1 + int(n)%52))
		checkEncodeKernels64(t, "fuzz", &vals, &recon, int64(bias)%1100, lim)
	})
}

// checkEncodeKernels32 holds the fp32 block kernels — ChooseBiasScan,
// FloatsToFixedScaled, ErrCheckRecon32 and FixedToFloatsBits — to their
// scalar forms on one block.
func checkEncodeKernels32(t testing.TB, label string, vals *[256]uint32, recon *[256]int32, bias int32, lim uint32) {
	t.Helper()
	if got, want := ChooseBiasScan(vals), scalarChooseBiasScan(vals); got != want {
		t.Fatalf("%s: ChooseBiasScan = %#x, want %#x", label, got, want)
	}
	scale := math.Float64frombits(uint64(1023+bias+16) << 52) // |bias| ≤ 128: always normal
	var fGot, fWant [256]int32
	okWant := scalarFloatsToFixed(&fWant, vals, bias, scale)
	if okGot := FloatsToFixedScaled(&fGot, vals, bias, scale); okGot != okWant {
		t.Fatalf("%s (bias=%d): FloatsToFixedScaled ok = %v, want %v", label, bias, okGot, okWant)
	}
	for i := range fGot {
		if okWant && fGot[i] != fWant[i] {
			t.Fatalf("%s (bias=%d): FloatsToFixedScaled dst[%d] = %d, want %d (src=%#x)", label, bias, i, fGot[i], fWant[i], vals[i])
		}
	}
	var bmGot, bmWant [32]byte
	nb := -bias
	dWant := scalarErrCheck(vals, recon, nb, lim, &bmWant)
	if dGot := ErrCheckRecon32(vals, recon, &bmGot, nb, lim); dGot != dWant || bmGot != bmWant {
		t.Fatalf("%s (nb=%d lim=%#x): ErrCheckRecon32 = (%d, %x), want (%d, %x)", label, nb, lim, dGot, bmGot, dWant, bmWant)
	}
	var aGot, aWant [256]uint32
	scalarFixedToFloatsBits(&aWant, recon, nb)
	FixedToFloatsBits(&aGot, recon, nb)
	for i := range aGot {
		if aGot[i] != aWant[i] {
			t.Fatalf("%s (nb=%d): FixedToFloatsBits dst[%d] = %#x, want %#x (recon=%d)", label, nb, i, aGot[i], aWant[i], recon[i])
		}
	}
}

// tile32 reads data as little-endian words, repeating it to fill the
// block (all zeros when data is empty).
func tile32(data []byte) (blk [256]uint32) {
	for i := range blk {
		for j := 0; j < 4 && len(data) > 0; j++ {
			blk[i] |= uint32(data[(i*4+j)%len(data)]) << (8 * j)
		}
	}
	return blk
}

func wordBytes32(words ...uint32) []byte {
	b := make([]byte, 0, 4*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// FuzzEncodeKernels32 is FuzzEncodeKernels64 for the fp32 block kernels:
// vals and recon tile their bytes, the exponent bias (the codec's int8)
// and the comparator's mantissa bits come from the last two arguments.
func FuzzEncodeKernels32(f *testing.F) {
	if !Enabled() {
		f.Skip("AVX-512 not available")
	}
	const one = 1 << 16 // Q15.16 1.0
	f32 := math.Float32bits
	// ±0 and ±denormals, against zero and tiny reconstructions.
	f.Add(wordBytes32(0, 1<<31, 1, 1<<31|1, 0x7FFFFF), wordBytes32(0, 1, 1<<32-1), int8(5), uint8(5))
	// NaN and ±Inf among normals: the scan's flag, the conversion's false.
	f.Add(wordBytes32(0x7FC00001, 0x7F800000, 0xFF800000, f32(1.5)), wordBytes32(one, 3*one/2), int8(0), uint8(5))
	// Exponents at both bias edges: e+bias = 1 and 0, 254 and 255.
	f.Add(wordBytes32(101<<23, 100<<23, 1<<31|101<<23|7), wordBytes32(one), int8(-100), uint8(3))
	f.Add(wordBytes32(154<<23, 155<<23, 1<<31|154<<23|9), wordBytes32(one), int8(100), uint8(3))
	// Lanes that scale past MaxInt32 and below MinInt32.
	f.Add(wordBytes32(f32(1<<14), f32(1<<20), f32(-(1<<14)), f32(-(1<<25))), wordBytes32(one), int8(1), uint8(1))
	// nb = 0: no un-bias surgery, every delta against lim = 2^22.
	f.Add(wordBytes32(f32(1.4)), wordBytes32(one), int8(0), uint8(0))
	// Mantissa deltas 3, 4 and 5 against lim = 4: the comparator's edge.
	f.Add(wordBytes32(0x3F800003, 0x3F800004, 0x3F800005), wordBytes32(one), int8(0), uint8(20))
	f.Fuzz(func(t *testing.T, valBytes, reconBytes []byte, bias int8, n uint8) {
		vals := tile32(valBytes)
		r := tile32(reconBytes)
		var recon [256]int32
		for i, w := range r {
			recon[i] = int32(w)
		}
		lim := uint32(1) << (23 - (1 + int(n)%23))
		checkEncodeKernels32(t, "fuzz", &vals, &recon, int32(bias), lim)
	})
}
