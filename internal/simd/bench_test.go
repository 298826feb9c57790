package simd

import (
	"encoding/base64"
	"math"
	"math/rand"
	"testing"
)

// The encode kernels run over one key's records — keyRecords blocks of a
// smooth wave with a spike every 37 values, and the reconstruction the
// error check compares it with, a few units off — and so do their
// ...Scalar twins, the test oracles in encode_test.go. scripts/bench.sh
// gates each kernel at 2x its twin, like the interpolation kernels below.

func encWave(i int) float64 {
	v := 50 + 10*math.Sin(float64(i)/80)
	if i%37 == 0 {
		v *= 1.5
	}
	return v
}

// encBlocks32 is the fp32 key at bias 7 (its largest magnitude, ~90,
// steered to 2^12 as fixed.ChooseBias does) and its Q15.16
// reconstruction.
func encBlocks32() (vals *[keyRecords][256]uint32, recon *[keyRecords][256]int32) {
	rng := rand.New(rand.NewSource(3))
	vals, recon = new([keyRecords][256]uint32), new([keyRecords][256]int32)
	for r := range vals {
		for i := range vals[r] {
			v := encWave(r*256 + i)
			vals[r][i] = math.Float32bits(float32(v))
			recon[r][i] = int32(v*(1<<23)) + int32(rng.Intn(64)-32)
		}
	}
	return vals, recon
}

// encBlocks64 is encBlocks32 for doubles: bias 22, Q31.32.
func encBlocks64() (vals *[keyRecords][128]uint64, recon *[keyRecords][128]int64) {
	rng := rand.New(rand.NewSource(4))
	vals, recon = new([keyRecords][128]uint64), new([keyRecords][128]int64)
	for r := range vals {
		for i := range vals[r] {
			v := encWave(r*128 + i)
			vals[r][i] = math.Float64bits(v)
			recon[r][i] = int64(v*(1<<54)) + int64(rng.Intn(1<<20)-1<<19)
		}
	}
	return vals, recon
}

func benchErrCheck32(b *testing.B, fn func(*[256]uint32, *[256]int32, *[32]byte, int32, uint32) int64) {
	vals, recon := encBlocks32()
	var bm [32]byte
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range vals {
			clear(bm[:])
			fn(&vals[r], &recon[r], &bm, -7, 1<<18)
		}
	}
}

func BenchmarkErrCheckRecon32(b *testing.B) {
	if !Enabled() {
		b.Skip("AVX-512 not available")
	}
	benchErrCheck32(b, ErrCheckRecon32)
}

func BenchmarkErrCheckRecon32Scalar(b *testing.B) {
	benchErrCheck32(b, func(vals *[256]uint32, recon *[256]int32, bm *[32]byte, nb int32, lim uint32) int64 {
		return scalarErrCheck(vals, recon, nb, lim, bm)
	})
}

func benchFloatsToFixed32(b *testing.B, fn func(*[256]int32, *[256]uint32, int32, float64) bool) {
	vals, _ := encBlocks32()
	var dst [256]int32
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range vals {
			fn(&dst, &vals[r], 7, 1<<23)
		}
	}
}

func BenchmarkFloatsToFixedScaled(b *testing.B) {
	if !Enabled() {
		b.Skip("AVX-512 not available")
	}
	benchFloatsToFixed32(b, FloatsToFixedScaled)
}

func BenchmarkFloatsToFixedScaledScalar(b *testing.B) {
	benchFloatsToFixed32(b, scalarFloatsToFixed)
}

func benchFixedToFloats32(b *testing.B, kernel bool, fn func(*[256]uint32, *[256]int32, int32)) {
	if kernel && !Enabled() {
		b.Skip("AVX-512 not available")
	}
	_, recon := encBlocks32()
	var dst [256]uint32
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range recon {
			fn(&dst, &recon[r], -7)
		}
	}
}

func BenchmarkFixedToFloatsBits(b *testing.B) { benchFixedToFloats32(b, true, FixedToFloatsBits) }

func BenchmarkFixedToFloatsBitsScalar(b *testing.B) {
	benchFixedToFloats32(b, false, scalarFixedToFloatsBits)
}

func benchChooseBias32(b *testing.B, kernel bool, fn func(*[256]uint32) uint32) {
	if kernel && !Enabled() {
		b.Skip("AVX-512 not available")
	}
	vals, _ := encBlocks32()
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range vals {
			fn(&vals[r])
		}
	}
}

func BenchmarkChooseBiasScan(b *testing.B) { benchChooseBias32(b, true, ChooseBiasScan) }

func BenchmarkChooseBiasScanScalar(b *testing.B) { benchChooseBias32(b, false, scalarChooseBiasScan) }

func benchErrCheck64(b *testing.B, kernel bool, fn func(*[128]uint64, *[128]int64, *[16]byte, int64, uint64) int64) {
	if kernel && !Enabled() {
		b.Skip("AVX-512 not available")
	}
	vals, recon := encBlocks64()
	var bm [16]byte
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range vals {
			clear(bm[:])
			fn(&vals[r], &recon[r], &bm, -22, 1<<47)
		}
	}
}

func BenchmarkErrCheckRecon64(b *testing.B) { benchErrCheck64(b, true, ErrCheckRecon64) }

func BenchmarkErrCheckRecon64Scalar(b *testing.B) {
	benchErrCheck64(b, false, func(vals *[128]uint64, recon *[128]int64, bm *[16]byte, nb int64, lim uint64) int64 {
		d, _ := scalarErrCheck64(vals, recon, nb, lim, bm)
		return d
	})
}

func benchFloatsToFixed64(b *testing.B, kernel bool, fn func(*[128]int64, *[128]uint64, int64, float64) bool) {
	if kernel && !Enabled() {
		b.Skip("AVX-512 not available")
	}
	vals, _ := encBlocks64()
	var dst [128]int64
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range vals {
			fn(&dst, &vals[r], 22, 1<<54)
		}
	}
}

func BenchmarkFloatsToFixedScaled64(b *testing.B) {
	benchFloatsToFixed64(b, true, FloatsToFixedScaled64)
}

func BenchmarkFloatsToFixedScaled64Scalar(b *testing.B) {
	benchFloatsToFixed64(b, false, scalarFloatsToFixed64)
}

func benchChooseBias64(b *testing.B, kernel bool, fn func(*[128]uint64) uint32) {
	if kernel && !Enabled() {
		b.Skip("AVX-512 not available")
	}
	vals, _ := encBlocks64()
	b.SetBytes(keyRecords * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range vals {
			fn(&vals[r])
		}
	}
}

func BenchmarkChooseBiasScan64(b *testing.B) { benchChooseBias64(b, true, ChooseBiasScan64) }

func BenchmarkChooseBiasScan64Scalar(b *testing.B) {
	benchChooseBias64(b, false, scalarChooseBiasScan64)
}

func benchFixed(seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]int32, 256)
	for i := range x {
		x[i] = int32(rng.Intn(1<<24) - 1<<23)
	}
	return x
}

// BenchmarkReduceFixed32 runs one 256-value record, the unit a query
// reduces (pure Go without the vector tier).
func BenchmarkReduceFixed32(b *testing.B) {
	x := benchFixed(5)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		ReduceFixed32(x)
	}
}

// BenchmarkCountRanges32 and its ...Scalar twin (the pure-Go loop) run
// one 256-value record; scripts/bench.sh gates the pair at 2x.
func BenchmarkCountRanges32(b *testing.B) {
	if !Enabled() {
		b.Skip("AVX-512 not available")
	}
	benchCountRanges32(b, func(x []int32, lo, hi *[3]int32, _ *[3]uint32) { CountRanges32(x, lo, hi) })
}

func BenchmarkCountRanges32Scalar(b *testing.B) {
	benchCountRanges32(b, func(x []int32, lo, _ *[3]int32, w *[3]uint32) { countRanges32Go(x, lo, w) })
}

func benchCountRanges32(b *testing.B, fn func(x []int32, lo, hi *[3]int32, w *[3]uint32)) {
	x := benchFixed(6)
	lo, hi := [3]int32{-1 << 20, -1 << 22, 0}, [3]int32{1 << 20, 1 << 22, 1 << 21}
	var w [3]uint32
	for k := range w {
		w[k] = uint32(hi[k]) - uint32(lo[k])
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(x, &lo, &hi, &w)
	}
}

// BenchmarkCountRanges64 and its ...Scalar twin (the pure-Go loop) run
// one 128-value fp64 record; scripts/bench.sh gates the pair at 2x.
func BenchmarkCountRanges64(b *testing.B) {
	if !Enabled() {
		b.Skip("AVX-512 not available")
	}
	benchCountRanges64(b, func(x []int64, lo *[3]int64, w *[3]uint64) {
		CountRanges64(x, lo, &[3]int64{lo[0] + int64(w[0]), lo[1] + int64(w[1]), lo[2] + int64(w[2])})
	})
}

func BenchmarkCountRanges64Scalar(b *testing.B) {
	benchCountRanges64(b, func(x []int64, lo *[3]int64, w *[3]uint64) { countRanges64Go(x, lo, w) })
}

func benchCountRanges64(b *testing.B, fn func([]int64, *[3]int64, *[3]uint64)) {
	rng := rand.New(rand.NewSource(10))
	x := make([]int64, 128)
	for i := range x {
		x[i] = rng.Int63n(1<<41) - 1<<40
	}
	lo, w := [3]int64{-1 << 36, -1 << 38, 0}, [3]uint64{1 << 37, 1 << 39, 1 << 37}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(x, &lo, &w)
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
	if kernel && !Enabled() {
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
	if kernel && !Enabled() {
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
