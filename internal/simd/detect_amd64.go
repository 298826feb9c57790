package simd

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

var hasAVX2 = detectAVX2()
var hasAVX512 = hasAVX2 && detectAVX512()

// hasVBMI gates the base64 kernels: the 512-bit subset plus the byte
// permutes and multishift of AVX512_VBMI (CPUID.7.0:ECX[1]).
var hasVBMI = hasAVX512 && detectVBMI()

// Enabled reports whether the AVX2 kernels can be used on this machine:
// the CPU advertises AVX2 and the OS has enabled XMM/YMM state saving.
func Enabled() bool { return hasAVX2 }

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if c&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 { // XCR0: XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// detectAVX512 requires the F/DQ/BW/VL subset the 512-bit kernels use,
// plus OS-managed opmask and ZMM state. Assumes detectAVX2 passed.
func detectAVX512() bool {
	if eax, _ := xgetbv(); eax&0xE6 != 0xE6 { // XCR0: XMM|YMM|opmask|ZMM
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const need = 1<<16 | 1<<17 | 1<<30 | 1<<31 // AVX512 F, DQ, BW, VL
	return b&need == need
}

func detectVBMI() bool {
	_, _, c, _ := cpuid(7, 0)
	return c&(1<<1) != 0
}
