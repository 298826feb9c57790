package simd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The interpolation kernels are pinned to scalar oracles restating, loop
// for loop, compress.interpolate (both methods) and compress.interpolate64
// — that package calls into this one, so the loops are duplicated here
// rather than imported. The sums are full-range, not only summaries an
// encoder can produce: a kernel must agree for every input pattern.

func scalarInterpolate1D(sum *[16]int32, out *[256]int32) {
	for j := 0; j < 8; j++ {
		out[j] = sum[0]
	}
	j := 8
	for s := 0; s < 15; s++ {
		a := int64(sum[s])
		d := int64(sum[s+1]) - a
		acc := a<<5 + d
		for k := 0; k < 16; k++ {
			out[j] = int32(acc >> 5)
			acc += 2 * d
			j++
		}
	}
	for ; j < 256; j++ {
		out[j] = sum[15]
	}
}

func scalarInterpolate2D(sum *[16]int32, out *[256]int32) {
	var rowVals [4][16]int64
	for R := 0; R < 4; R++ {
		rv := &rowVals[R]
		a0 := int64(sum[R*4])
		rv[0], rv[1] = a0, a0
		j := 2
		for C := 0; C < 3; C++ {
			a := int64(sum[R*4+C])
			d := int64(sum[R*4+C+1]) - a
			acc := a<<3 + d
			for k := 0; k < 4; k++ {
				rv[j] = acc >> 3
				acc += 2 * d
				j++
			}
		}
		a3 := int64(sum[R*4+3])
		rv[14], rv[15] = a3, a3
	}
	for col := 0; col < 16; col++ {
		out[col] = int32(rowVals[0][col])
		out[16+col] = int32(rowVals[0][col])
		out[14*16+col] = int32(rowVals[3][col])
		out[15*16+col] = int32(rowVals[3][col])
	}
	r := 2
	for R := 0; R < 3; R++ {
		top, bot := &rowVals[R], &rowVals[R+1]
		for fr := 0; fr < 4; fr++ {
			frac := int64(2*fr + 1)
			for col := 0; col < 16; col++ {
				t := top[col]
				d := bot[col] - t
				out[r*16+col] = int32((t<<3 + d*frac) >> 3)
			}
			r++
		}
	}
}

func scalarInterpolate64(sum *[8]int64, out *[128]int64) {
	for j := 0; j < 8; j++ {
		out[j] = sum[0]
	}
	j := 8
	for s := 0; s < 7; s++ {
		a := sum[s]
		step := (sum[s+1] - a) / 32
		acc := a + step
		for k := 0; k < 16; k++ {
			out[j] = acc
			acc += 2 * step
			j++
		}
	}
	for ; j < 128; j++ {
		out[j] = sum[7]
	}
}

// interpSum32 fills sum with one of the adversarial shapes: full-range
// random, adjacent MinInt32/MaxInt32 pairs, all equal, alternating sign,
// or a codec-like magnitude.
func interpSum32(rng *rand.Rand, sum *[16]int32, mode int) {
	v := int32(rng.Uint32())
	for i := range sum {
		switch mode {
		case 0:
			sum[i] = int32(rng.Uint32())
		case 1:
			sum[i] = [2]int32{math.MinInt32, math.MaxInt32}[(i+rng.Intn(2))&1]
		case 2:
			sum[i] = v
		case 3:
			m := int32(rng.Uint32() >> 1)
			if i&1 == 1 {
				m = -m - int32(rng.Intn(2)) // reaches MinInt32
			}
			sum[i] = m
		default:
			sum[i] = int32(rng.Intn(1<<22) - 1<<21)
		}
	}
}

// interpSum64 is interpSum32 for fp64 summaries, with neighbours at
// MinInt64/MaxInt64 (sum[s+1]−sum[s] wraps) and small negative
// differences that are no multiple of 32 (the truncating /32 rounds
// toward zero, not down).
func interpSum64(rng *rand.Rand, sum *[8]int64, mode int) {
	edges := [...]int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	v := int64(rng.Uint64())
	for i := range sum {
		switch mode {
		case 0:
			sum[i] = int64(rng.Uint64())
		case 1:
			sum[i] = [2]int64{math.MinInt64, math.MaxInt64}[(i+rng.Intn(2))&1]
		case 2:
			sum[i] = edges[rng.Intn(len(edges))]
		case 3:
			sum[i] = v
		case 4:
			m := int64(rng.Uint64() >> 1)
			if i&1 == 1 {
				m = -m - int64(rng.Intn(2))
			}
			sum[i] = m
		case 5:
			sum[i] = v - int64(rng.Intn(64)) // negative steps, most not /32
			v = sum[i]
		default:
			sum[i] = rng.Int63n(1<<40) - 1<<39 // a codec-like Q31.32 magnitude
		}
	}
}

func checkInterpolate32(t testing.TB, label string, sum *[16]int32) {
	t.Helper()
	var got, want [256]int32
	for _, k := range []struct {
		name         string
		kernel, want func(*[16]int32, *[256]int32)
	}{
		{"Interpolate1D", Interpolate1D, scalarInterpolate1D},
		{"Interpolate2D", Interpolate2D, scalarInterpolate2D},
	} {
		k.want(sum, &want)
		k.kernel(sum, &got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %s out[%d] = %d, want %d (sum=%v)", label, k.name, i, got[i], want[i], *sum)
			}
		}
	}
}

func checkInterpolate64(t testing.TB, label string, sum *[8]int64) {
	t.Helper()
	var got, want [128]int64
	scalarInterpolate64(sum, &want)
	Interpolate64(sum, &got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Interpolate64 out[%d] = %d, want %d (sum=%v)", label, i, got[i], want[i], *sum)
		}
	}
}

func TestInterpolateMatchesScalar(t *testing.T) {
	if !Enabled() {
		t.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(4))
	var sum [16]int32
	var sum64 [8]int64
	for round := 0; round < 6000; round++ {
		interpSum32(rng, &sum, round%5)
		checkInterpolate32(t, "round "+strconv.Itoa(round), &sum)
		interpSum64(rng, &sum64, round%7)
		checkInterpolate64(t, "round "+strconv.Itoa(round), &sum64)
	}
	// Every ordered pair of edge values on every segment boundary.
	edges32 := []int32{math.MinInt32, math.MinInt32 + 1, -32, -31, -1, 0, 1, 31, 32, math.MaxInt32 - 1, math.MaxInt32}
	for _, a := range edges32 {
		for _, b := range edges32 {
			for i := range sum {
				sum[i] = [2]int32{a, b}[i&1]
			}
			checkInterpolate32(t, "edges", &sum)
		}
	}
	edges64 := []int64{math.MinInt64, math.MinInt64 + 1, -33, -32, -31, -1, 0, 1, 31, 32, 33, math.MaxInt64 - 1, math.MaxInt64}
	for _, a := range edges64 {
		for _, b := range edges64 {
			for i := range sum64 {
				sum64[i] = [2]int64{a, b}[i&1]
			}
			checkInterpolate64(t, "edges", &sum64)
		}
	}
}

// FuzzInterpolate holds all three interpolation kernels to their scalar
// forms: the first 64 bytes, zero-padded, are read as 16 int32 and as 8
// int64 summaries.
func FuzzInterpolate(f *testing.F) {
	if !Enabled() {
		f.Skip("AVX-512 not available")
	}
	f.Add([]byte{})
	edges := make([]byte, 64)
	for i := 0; i < 64; i += 8 {
		binary.LittleEndian.PutUint64(edges[i:], [2]uint64{1 << 63, 1<<63 - 1}[i/8&1])
	}
	f.Add(edges)
	ramp := make([]byte, 64)
	for i := range ramp {
		ramp[i] = byte(255 - 7*i)
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, data []byte) {
		var line [64]byte
		copy(line[:], data)
		var sum [16]int32
		var sum64 [8]int64
		for i := range sum {
			sum[i] = int32(binary.LittleEndian.Uint32(line[4*i:]))
		}
		for i := range sum64 {
			sum64[i] = int64(binary.LittleEndian.Uint64(line[8*i:]))
		}
		checkInterpolate32(t, "fuzz", &sum)
		checkInterpolate64(t, "fuzz", &sum64)
	})
}
