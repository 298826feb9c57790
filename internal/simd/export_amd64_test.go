package simd

// ForceFallback turns the vector tier off — each exported kernel's
// dispatch and every caller's Enabled check then take the pure-Go path,
// as on a machine without AVX-512 — and returns the restore. It exists
// only in this package's test binary.
func ForceFallback() (restore func()) {
	avx512, vbmi := hasAVX512, hasVBMI
	hasAVX512, hasVBMI = false, false
	return func() { hasAVX512, hasVBMI = avx512, vbmi }
}
