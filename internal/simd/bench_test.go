package simd

import (
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
