//go:build !amd64

package simd

// Enabled reports whether the vector kernels can be used; on non-amd64
// targets they do not exist.
func Enabled() bool { return false }

// The kernels are unavailable on this target; callers must check
// Enabled() first.
func ErrCheckRecon32(vals *[256]uint32, recon *[256]int32, bm *[32]byte, nb int32, lim uint32) int64 {
	panic("simd: ErrCheckRecon32 called without AVX-512")
}

func FloatsToFixedScaled(dst *[256]int32, src *[256]uint32, bias int32, scale float64) bool {
	panic("simd: FloatsToFixedScaled called without AVX-512")
}

func FixedToFloatsBits(dst *[256]uint32, recon *[256]int32, nb int32) {
	panic("simd: FixedToFloatsBits called without AVX-512")
}

func ChooseBiasScan(bits *[256]uint32) uint32 { panic("simd: ChooseBiasScan called without AVX-512") }

func FixedToFloatsBits64(dst *[128]uint64, recon *[128]int64, nb int64) {
	panic("simd: FixedToFloatsBits64 called without AVX-512")
}

func ChooseBiasScan64(bits *[128]uint64) uint32 {
	panic("simd: ChooseBiasScan64 called without AVX-512")
}

func FloatsToFixedScaled64(dst *[128]int64, src *[128]uint64, bias int64, scale float64) bool {
	panic("simd: FloatsToFixedScaled64 called without AVX-512")
}

func ErrCheckRecon64(vals *[128]uint64, recon *[128]int64, bm *[16]byte, nb int64, lim uint64) int64 {
	panic("simd: ErrCheckRecon64 called without AVX-512")
}

func Interpolate1D(sum *[16]int32, out *[256]int32) {
	panic("simd: Interpolate1D called without AVX-512")
}

func Interpolate2D(sum *[16]int32, out *[256]int32) {
	panic("simd: Interpolate2D called without AVX-512")
}

func Interpolate64(sum *[8]int64, out *[128]int64) {
	panic("simd: Interpolate64 called without AVX-512")
}

func Downsample1D(fx *[256]int32, sum *[16]int32) {
	panic("simd: Downsample1D called without AVX-512")
}

func Downsample2D(fx *[256]int32, sum *[16]int32) {
	panic("simd: Downsample2D called without AVX-512")
}

// The vector bodies of the reductions are unavailable on this target;
// Enabled() is false, so the exported forms run pure Go.
func reduceFixed32AVX2(x []int32) (sum, abs int64, mn, mx int32) {
	panic("simd: reduceFixed32AVX2 called without AVX-512")
}

func countRanges32AVX2(x []int32, lo *[3]int32, w *[3]uint32, n *[3]int64) {
	panic("simd: countRanges32AVX2 called without AVX-512")
}

func reduceFixed64AVX512(x []int64, out *[6]int64) {
	panic("simd: reduceFixed64AVX512 called without AVX-512")
}

func countRanges64AVX512(x []int64, lo *[3]int64, w *[3]uint64, n *[3]int64) {
	panic("simd: countRanges64AVX512 called without AVX-512")
}

// The AVX-512 VBMI bodies of Base64Encode and Base64Decode do not exist
// on this target, where those are encoding/base64.
const hasVBMI = false

func base64EncodeVBMI(dst, src []byte) { panic("simd: base64EncodeVBMI called without AVX-512 VBMI") }

func base64DecodeVBMI(dst, src []byte) bool {
	panic("simd: base64DecodeVBMI called without AVX-512 VBMI")
}
