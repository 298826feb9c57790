package simd

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX512 is the one vector tier every kernel needs; hasVBMI gates the
// base64 kernels on top of it.
var hasAVX512, hasVBMI = func() (vec, vbmi bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return features(maxLeaf, ecx1, ebx7, ecx7, func() uint32 { eax, _ := xgetbv(); return eax })
}()

// Enabled reports whether this machine has the vector tier: AVX2 and the
// AVX-512 F/DQ/BW/VL subset, with the OS saving their register state.
// Without it every caller runs its scalar loop.
func Enabled() bool { return hasAVX512 }

// features decides the tier from the CPUID words — leaf 0's EAX (the
// highest leaf), leaf 1's ECX, leaf 7's EBX and ECX — and a reader of
// XCR0. It asks for AVX2 because the fp32 reductions' bodies are 256-bit
// AVX2 code, and for XMM, YMM, opmask and ZMM state in XCR0. vbmi adds
// AVX512_VBMI's byte permutes. xcr0 is called only once OSXSAVE says the
// OS has enabled XGETBV, which faults otherwise.
func features(maxLeaf, ecx1, ebx7, ecx7 uint32, xcr0 func() uint32) (vec, vbmi bool) {
	const osxsaveAndAVX = 1<<27 | 1<<28
	if maxLeaf < 7 || ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false, false
	}
	const need = 1<<5 | 1<<16 | 1<<17 | 1<<30 | 1<<31 // AVX2, AVX512 F, DQ, BW, VL
	vec = ebx7&need == need && xcr0()&0xE6 == 0xE6    // XCR0: XMM|YMM|opmask|ZMM
	return vec, vec && ecx7&(1<<1) != 0
}
