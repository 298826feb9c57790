package avr

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"avr/internal/workloads"
)

// Differential harness: the fast codec paths (EncodeTo/DecodeTo and the
// 64-bit twins) must be byte-identical to the retained reference scalar
// codec in codec_reference_test.go across every workload distribution and
// across lengths that cross every lane/padding boundary.

// diffSizes crosses the structural boundaries of the wire format: empty,
// sub-block (16) edges, block (256 / 128) edges, and multi-block tails.
var diffSizes = []int{0, 1, 2, 15, 16, 17, 31, 32, 33, 127, 128, 129, 255, 256, 257, 300, 511, 512, 513, 4096, 4097}

// diffHeads are the lengths DecodeTo's destination starts at: odd counts
// of values, so the appended region begins 4, 12 and 28 bytes (fp32) off
// a 64-byte boundary whatever the allocator returned.
var diffHeads = []int{1, 3, 7}

func TestCodecDifferentialWorkloads32(t *testing.T) {
	for _, dist := range workloads.Distributions() {
		for _, n := range diffSizes {
			t.Run(fmt.Sprintf("%s/%d", dist, n), func(t *testing.T) {
				vals, err := workloads.GenFloat32(dist, n, 42)
				if err != nil {
					t.Fatal(err)
				}
				assertCodecDifferential32(t, vals)
			})
		}
	}
}

func TestCodecDifferentialWorkloads64(t *testing.T) {
	for _, dist := range workloads.Distributions() {
		for _, n := range diffSizes {
			t.Run(fmt.Sprintf("%s/%d", dist, n), func(t *testing.T) {
				vals, err := workloads.GenFloat64(dist, n, 42)
				if err != nil {
					t.Fatal(err)
				}
				assertCodecDifferential64(t, vals)
			})
		}
	}
}

// TestCodecDifferentialEdgeLengths32 sweeps every length from 0 through a
// full block plus a tail, so each possible partial-block padding amount is
// exercised at least once.
func TestCodecDifferentialEdgeLengths32(t *testing.T) {
	for n := 0; n <= 300; n++ {
		vals := make([]float32, n)
		for i := range vals {
			// Smooth base with periodic spikes: compressible blocks with
			// non-empty outlier sets.
			vals[i] = float32(80 + 5*math.Sin(float64(i)/20))
			if i%37 == 0 {
				vals[i] *= 4
			}
		}
		assertCodecDifferential32(t, vals)
	}
}

func TestCodecDifferentialEdgeLengths64(t *testing.T) {
	for n := 0; n <= 129; n++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 80 + 5*math.Sin(float64(i)/20)
			if i%29 == 0 {
				vals[i] *= 4
			}
		}
		assertCodecDifferential64(t, vals)
	}
}

// TestCodecDifferentialSpecials32 pins the fast path on blocks built from
// IEEE special values and on the all-outlier / zero-outlier extremes.
func TestCodecDifferentialSpecials32(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	denorm := math.Float32frombits(1)
	negZero := float32(math.Copysign(0, -1))
	cases := map[string][]float32{
		"all-nan":       repeat32(nan, 256),
		"all-inf":       repeat32(inf, 256),
		"all-denormal":  repeat32(denorm, 256),
		"all-zero":      repeat32(0, 256),
		"all-neg-zero":  repeat32(negZero, 256),
		"specials-mix":  {nan, inf, float32(math.Inf(-1)), denorm, -denorm, 0, negZero, 1, -1, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32},
		"zero-outliers": smoothSignal(512),
		"sign-flips":    alternating32(256),
		"partial-nan":   append(repeat32(1.5, 200), nan, inf, denorm),
	}
	// All-outlier block: constant base with one spike per value position
	// would just be raw; instead alternate exponents so every value misses
	// its sub-block average.
	allOut := make([]float32, 256)
	for i := range allOut {
		if i%2 == 0 {
			allOut[i] = 1
		} else {
			allOut[i] = 1e20
		}
	}
	cases["all-outlier"] = allOut
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { assertCodecDifferential32(t, vals) })
	}
}

func TestCodecDifferentialSpecials64(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	denorm := math.Float64frombits(1)
	negZero := math.Copysign(0, -1)
	cases := map[string][]float64{
		"all-nan":      repeat64(nan, 128),
		"all-inf":      repeat64(inf, 128),
		"all-denormal": repeat64(denorm, 128),
		"all-zero":     repeat64(0, 128),
		"all-neg-zero": repeat64(negZero, 128),
		"specials-mix": {nan, inf, math.Inf(-1), denorm, -denorm, 0, negZero, 1, -1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		"partial-nan":  append(repeat64(1.5, 100), nan, inf, denorm),
	}
	allOut := make([]float64, 128)
	for i := range allOut {
		if i%2 == 0 {
			allOut[i] = 1
		} else {
			allOut[i] = 1e200
		}
	}
	cases["all-outlier"] = allOut
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { assertCodecDifferential64(t, vals) })
	}
}

// TestEncodeToAppendsToPrefix checks the append contract: EncodeTo and
// DecodeTo extend the buffer they are given without disturbing its
// existing contents.
func TestEncodeToAppendsToPrefix(t *testing.T) {
	c := NewCodec(0)
	vals := smoothSignal(300)
	enc, err := c.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := c.EncodeTo(append([]byte(nil), prefix...), vals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], enc) {
		t.Fatalf("EncodeTo did not append cleanly after prefix")
	}

	head := []float32{1, 2, 3}
	dec, err := c.DecodeTo(append([]float32(nil), head...), enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(head)+len(vals) {
		t.Fatalf("DecodeTo length = %d, want %d", len(dec), len(head)+len(vals))
	}
	for i, v := range head {
		if dec[i] != v {
			t.Fatalf("DecodeTo clobbered dst[%d]: got %v want %v", i, dec[i], v)
		}
	}
	ref, err := c.referenceDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ref {
		if math.Float32bits(dec[len(head)+i]) != math.Float32bits(v) {
			t.Fatalf("DecodeTo value %d = %v, reference %v", i, dec[len(head)+i], v)
		}
	}
}

func TestEncode64ToAppendsToPrefix(t *testing.T) {
	c := NewCodec(0)
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = 50 + 10*math.Sin(float64(i)/40)
	}
	enc, err := c.Encode64(vals)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := c.Encode64To(append([]byte(nil), prefix...), vals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], enc) {
		t.Fatalf("Encode64To did not append cleanly after prefix")
	}
	head := []float64{1, 2, 3}
	dec, err := c.Decode64To(append([]float64(nil), head...), enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(head)+len(vals) {
		t.Fatalf("Decode64To length = %d, want %d", len(dec), len(head)+len(vals))
	}
	for i, v := range head {
		if dec[i] != v {
			t.Fatalf("Decode64To clobbered dst[%d]: got %v want %v", i, dec[i], v)
		}
	}
}

// TestEncodeToReadsInPlace: EncodeTo and Encode64To hand every full block
// to the compressor as a view of the caller's values. They must leave
// those values bit for bit as they were and still encode exactly what the
// reference, which copies every block, encodes — over lengths that end on,
// before and after a block boundary, with blocks that compress, carry
// outliers or go raw (the second block is bit noise).
func TestEncodeToReadsInPlace(t *testing.T) {
	for _, n := range []int{1, 127, 128, 129, 255, 256, 257, 1000} {
		v32 := make([]float32, n)
		v64 := make([]float64, n)
		for i := range v32 {
			s := 50 + 10*math.Sin(float64(i)/40)
			if i%37 == 0 {
				s *= 3
			}
			v32[i], v64[i] = float32(s), s
			if i/256 == 1 {
				v32[i] = math.Float32frombits(0x9E3779B9 * uint32(i+1))
			}
			if i/128 == 1 {
				v64[i] = math.Float64frombits(0x9E3779B97F4A7C15 * uint64(i+1))
			}
		}
		before32 := make([]uint32, n)
		before64 := make([]uint64, n)
		for i := range v32 {
			before32[i], before64[i] = math.Float32bits(v32[i]), math.Float64bits(v64[i])
		}

		c := NewCodec(0)
		got, err := c.EncodeTo(nil, v32)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := c.referenceEncode(v32)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("n=%d: EncodeTo differs from referenceEncode at byte %d", n, firstDiff(got, ref))
		}
		got64, err := c.Encode64To(nil, v64)
		if err != nil {
			t.Fatal(err)
		}
		ref64, err := c.referenceEncode64(v64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got64, ref64) {
			t.Fatalf("n=%d: Encode64To differs from referenceEncode64 at byte %d", n, firstDiff(got64, ref64))
		}
		for i := range v32 {
			if math.Float32bits(v32[i]) != before32[i] || math.Float64bits(v64[i]) != before64[i] {
				t.Fatalf("n=%d: encoding wrote input value %d", n, i)
			}
		}
	}
}

// assertCodecDifferential32 checks fast-vs-reference byte identity on
// encode and bit identity on decode, plus scratch-buffer reuse stability
// (a second encode into a retained buffer must reproduce the stream).
func assertCodecDifferential32(t *testing.T, vals []float32) {
	t.Helper()
	c := NewCodec(0)
	ref, err := c.referenceEncode(vals)
	if err != nil {
		t.Fatalf("referenceEncode: %v", err)
	}
	fast, err := c.Encode(vals)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(ref, fast) {
		t.Fatalf("encode mismatch: reference %d bytes, fast %d bytes, first diff at %d", len(ref), len(fast), firstDiff(ref, fast))
	}
	again, err := c.EncodeTo(fast[len(fast):], vals)
	if err != nil {
		t.Fatalf("EncodeTo reuse: %v", err)
	}
	if !bytes.Equal(ref, again) {
		t.Fatalf("EncodeTo with retained buffer diverged at %d", firstDiff(ref, again))
	}

	refDec, err := c.referenceDecode(ref)
	if err != nil {
		t.Fatalf("referenceDecode: %v", err)
	}
	fastDec, err := c.Decode(fast)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(refDec) != len(fastDec) || len(fastDec) != len(vals) {
		t.Fatalf("decode lengths: reference %d, fast %d, input %d", len(refDec), len(fastDec), len(vals))
	}
	for i := range refDec {
		if math.Float32bits(refDec[i]) != math.Float32bits(fastDec[i]) {
			t.Fatalf("decode mismatch at %d: reference %x, fast %x", i, math.Float32bits(refDec[i]), math.Float32bits(fastDec[i]))
		}
	}
	// DecodeTo reconstructs in place: a destination that already holds
	// values puts every kernel store off its natural vector alignment,
	// and a stream ending in a partial record must stop at dst's end.
	for _, head := range diffHeads {
		for _, spare := range []int{0, len(vals)} {
			dst := make([]float32, head, head+spare)
			for i := range dst {
				dst[i] = float32(-1 - i)
			}
			got, err := c.DecodeTo(dst, fast)
			if err != nil {
				t.Fatalf("DecodeTo(head %d, spare %d): %v", head, spare, err)
			}
			if len(got) != head+len(refDec) {
				t.Fatalf("DecodeTo(head %d, spare %d) length = %d, want %d", head, spare, len(got), head+len(refDec))
			}
			for i := 0; i < head; i++ {
				if got[i] != float32(-1-i) {
					t.Fatalf("DecodeTo(head %d, spare %d) clobbered dst[%d]", head, spare, i)
				}
			}
			for i := range refDec {
				if math.Float32bits(refDec[i]) != math.Float32bits(got[head+i]) {
					t.Fatalf("DecodeTo(head %d, spare %d) mismatch at %d: reference %x, fast %x",
						head, spare, i, math.Float32bits(refDec[i]), math.Float32bits(got[head+i]))
				}
			}
		}
	}
}

func assertCodecDifferential64(t *testing.T, vals []float64) {
	t.Helper()
	c := NewCodec(0)
	ref, err := c.referenceEncode64(vals)
	if err != nil {
		t.Fatalf("referenceEncode64: %v", err)
	}
	fast, err := c.Encode64(vals)
	if err != nil {
		t.Fatalf("Encode64: %v", err)
	}
	if !bytes.Equal(ref, fast) {
		t.Fatalf("encode64 mismatch: reference %d bytes, fast %d bytes, first diff at %d", len(ref), len(fast), firstDiff(ref, fast))
	}
	again, err := c.Encode64To(fast[len(fast):], vals)
	if err != nil {
		t.Fatalf("Encode64To reuse: %v", err)
	}
	if !bytes.Equal(ref, again) {
		t.Fatalf("Encode64To with retained buffer diverged at %d", firstDiff(ref, again))
	}

	refDec, err := c.referenceDecode64(ref)
	if err != nil {
		t.Fatalf("referenceDecode64: %v", err)
	}
	fastDec, err := c.Decode64(fast)
	if err != nil {
		t.Fatalf("Decode64: %v", err)
	}
	if len(refDec) != len(fastDec) || len(fastDec) != len(vals) {
		t.Fatalf("decode64 lengths: reference %d, fast %d, input %d", len(refDec), len(fastDec), len(vals))
	}
	for i := range refDec {
		if math.Float64bits(refDec[i]) != math.Float64bits(fastDec[i]) {
			t.Fatalf("decode64 mismatch at %d: reference %x, fast %x", i, math.Float64bits(refDec[i]), math.Float64bits(fastDec[i]))
		}
	}
	for _, head := range diffHeads {
		for _, spare := range []int{0, len(vals)} {
			dst := make([]float64, head, head+spare)
			for i := range dst {
				dst[i] = float64(-1 - i)
			}
			got, err := c.Decode64To(dst, fast)
			if err != nil {
				t.Fatalf("Decode64To(head %d, spare %d): %v", head, spare, err)
			}
			if len(got) != head+len(refDec) {
				t.Fatalf("Decode64To(head %d, spare %d) length = %d, want %d", head, spare, len(got), head+len(refDec))
			}
			for i := 0; i < head; i++ {
				if got[i] != float64(-1-i) {
					t.Fatalf("Decode64To(head %d, spare %d) clobbered dst[%d]", head, spare, i)
				}
			}
			for i := range refDec {
				if math.Float64bits(refDec[i]) != math.Float64bits(got[head+i]) {
					t.Fatalf("Decode64To(head %d, spare %d) mismatch at %d: reference %x, fast %x",
						head, spare, i, math.Float64bits(refDec[i]), math.Float64bits(got[head+i]))
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func repeat32(v float32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func repeat64(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func alternating32(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(1 + i%7)
		if i%2 == 1 {
			out[i] = -out[i]
		}
	}
	return out
}
