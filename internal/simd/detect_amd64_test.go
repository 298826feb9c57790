package simd

import "testing"

// TestFeatures runs the detector over CPUID words and XCR0 values: the
// tier needs every bit, VBMI counts only with the tier, and XGETBV is
// never read unless the max leaf and OSXSAVE say it may be.
func TestFeatures(t *testing.T) {
	const (
		leaf    = 0xD
		osxsave = 1<<27 | 1<<28 // OSXSAVE and AVX
		avx2    = 1 << 5
		f, dq   = 1 << 16, 1 << 17
		bw, vl  = 1 << 30, 1 << 31
		tier    = avx2 | f | dq | bw | vl
		vbmi    = 1 << 1
		xcr0    = 0xE7 // x87|XMM|YMM|opmask|ZMM_Hi256|Hi16_ZMM
	)
	cases := []struct {
		name                      string
		maxLeaf, ecx1, ebx7, ecx7 uint32
		xcr0                      uint32
		vec, vbmi, noXGETBV       bool
	}{
		{"tier and VBMI", leaf, osxsave, tier, vbmi, xcr0, true, true, false},
		{"tier without VBMI", leaf, osxsave, tier, 0, xcr0, true, false, false},
		{"AVX2 only", leaf, osxsave, avx2, 0, 0x7, false, false, false},
		{"AVX2 only, VBMI bit", leaf, osxsave, avx2, vbmi, xcr0, false, false, false},
		{"AVX-512F without DQ", leaf, osxsave, tier &^ dq, vbmi, xcr0, false, false, false},
		{"AVX-512F without BW", leaf, osxsave, tier &^ bw, vbmi, xcr0, false, false, false},
		{"AVX-512F without VL", leaf, osxsave, tier &^ vl, vbmi, xcr0, false, false, false},
		{"AVX-512 without AVX2", leaf, osxsave, tier &^ avx2, 0, xcr0, false, false, false},
		{"XCR0 without opmask or ZMM", leaf, osxsave, tier, vbmi, 0x7, false, false, false},
		{"XCR0 without YMM", leaf, osxsave, tier, vbmi, xcr0 &^ 4, false, false, false},
		{"OSXSAVE clear", leaf, osxsave &^ (1 << 27), tier, vbmi, xcr0, false, false, true},
		{"max leaf below 7", 6, osxsave, tier, vbmi, xcr0, false, false, true},
	}
	for _, c := range cases {
		read := false
		vec, vb := features(c.maxLeaf, c.ecx1, c.ebx7, c.ecx7, func() uint32 { read = true; return c.xcr0 })
		if vec != c.vec || vb != c.vbmi {
			t.Errorf("%s: features = (%v, %v), want (%v, %v)", c.name, vec, vb, c.vec, c.vbmi)
		}
		if read && c.noXGETBV {
			t.Errorf("%s: XCR0 read without OSXSAVE (XGETBV faults there)", c.name)
		}
	}
}
