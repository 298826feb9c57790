package simd

// ForceFallback turns every vector tier off — each exported kernel's
// dispatch and every caller's Enabled / Enabled512 check then take the
// pure-Go path, as on a machine without AVX2 — and returns the restore.
// It exists only in this package's test binary.
func ForceFallback() (restore func()) {
	avx2, avx512, vbmi := hasAVX2, hasAVX512, hasVBMI
	hasAVX2, hasAVX512, hasVBMI = false, false, false
	return func() { hasAVX2, hasAVX512, hasVBMI = avx2, avx512, vbmi }
}
