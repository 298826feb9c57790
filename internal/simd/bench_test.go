package simd

import (
	"encoding/base64"
	"math/rand"
	"testing"
)

func BenchmarkErrCheckRecon32(b *testing.B) {
	if !Enabled() {
		b.Skip("AVX2 not available")
	}
	rng := rand.New(rand.NewSource(3))
	var vals [256]uint32
	var recon [256]int32
	var bm [32]byte
	for i := range recon {
		recon[i] = int32(rng.Intn(1<<24) - 1<<23)
		vals[i] = uint32(rng.Uint32())
	}
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		ErrCheckRecon32(&vals, &recon, &bm, 5, 1<<13)
	}
}

func BenchmarkFloatsToFixedScaled(b *testing.B) {
	if !Enabled() {
		b.Skip("AVX2 not available")
	}
	rng := rand.New(rand.NewSource(4))
	var src [256]uint32
	var dst [256]int32
	for i := range src {
		src[i] = rng.Uint32()&0x807FFFFF | uint32(120+rng.Intn(16))<<23
	}
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		FloatsToFixedScaled(&dst, &src, 3, 1<<19)
	}
}

func benchFixed(seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]int32, 256)
	for i := range x {
		x[i] = int32(rng.Intn(1<<24) - 1<<23)
	}
	return x
}

// BenchmarkReduceFixed32 and BenchmarkCountRanges32 run one 256-value
// record, the unit a query reduces (pure Go without AVX2).
func BenchmarkReduceFixed32(b *testing.B) {
	x := benchFixed(5)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		ReduceFixed32(x)
	}
}

func BenchmarkCountRanges32(b *testing.B) {
	x := benchFixed(6)
	lo, hi := [3]int32{-1 << 20, -1 << 22, 0}, [3]int32{1 << 20, 1 << 22, 1 << 21}
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		CountRanges32(x, &lo, &hi)
	}
}

// keyRecords is the number of records in one 64 KiB key at either width
// (256 fp32 or 128 fp64 values a record): one op of the interpolation
// benchmarks, so a short -benchtime still times microseconds.
const keyRecords = 64

// benchInterpolate32 runs fn over one key's summaries. The kernel
// benchmarks and their ...Scalar twins (the test oracles) run in the same
// binary, so scripts/bench.sh gates their ratio: a kernel that loses to
// the loop it replaces fails there on any machine.
func benchInterpolate32(b *testing.B, kernel bool, fn func(*[16]int32, *[256]int32)) {
	if kernel && !Enabled512() {
		b.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(8))
	var sums [keyRecords][16]int32
	for r := range sums {
		interpSum32(rng, &sums[r], 4)
	}
	var out [256]int32
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range sums {
			fn(&sums[r], &out)
		}
	}
}

func benchInterpolate64(b *testing.B, kernel bool, fn func(*[8]int64, *[128]int64)) {
	if kernel && !Enabled512() {
		b.Skip("AVX-512 not available")
	}
	rng := rand.New(rand.NewSource(9))
	var sums [keyRecords][8]int64
	for r := range sums {
		interpSum64(rng, &sums[r], 6)
	}
	var out [128]int64
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range sums {
			fn(&sums[r], &out)
		}
	}
}

func BenchmarkInterpolate1D(b *testing.B) { benchInterpolate32(b, true, Interpolate1D) }

func BenchmarkInterpolate1DScalar(b *testing.B) { benchInterpolate32(b, false, scalarInterpolate1D) }

func BenchmarkInterpolate2D(b *testing.B) { benchInterpolate32(b, true, Interpolate2D) }

func BenchmarkInterpolate2DScalar(b *testing.B) { benchInterpolate32(b, false, scalarInterpolate2D) }

func BenchmarkInterpolate64(b *testing.B) { benchInterpolate64(b, true, Interpolate64) }

func BenchmarkInterpolate64Scalar(b *testing.B) { benchInterpolate64(b, false, scalarInterpolate64) }

// benchBase64 is one key's 64 KiB payload and its base64 text.
func benchBase64() (raw, text []byte) {
	raw = make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(raw)
	text = make([]byte, base64.StdEncoding.EncodedLen(len(raw)))
	base64.StdEncoding.Encode(text, raw)
	return raw, text
}

// BenchmarkBase64Encode/Decode/Valid run one 64 KiB payload, the batch
// wire's unit (encoding/base64 without AVX-512 VBMI). Encode and decode
// count payload bytes, valid the characters it reads.
func BenchmarkBase64Encode(b *testing.B) {
	raw, text := benchBase64()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Base64Encode(text, raw)
	}
}

func BenchmarkBase64Decode(b *testing.B) {
	raw, text := benchBase64()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Base64Decode(raw, text); !ok {
			b.Fatal("decode failed")
		}
	}
}
