package vec

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"avr"
)

func TestLERoundTrip(t *testing.T) {
	f32 := []float32{0, 1.5, -2.25, float32(math.Inf(1)), math.MaxFloat32, math.SmallestNonzeroFloat32}
	f64 := []float64{0, 1.5, -2.25, math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	cases := []struct {
		name string
		v    Vec
		want []byte // spot check of the layout: first non-zero value
	}{
		{"fp32", Of32(f32), []byte{0, 0, 0xC0, 0x3F}},             // 1.5f
		{"fp64", Of64(f64), []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x3F}}, // 1.5
		{"empty fp32", Of32(nil), nil},
		{"empty fp64", Of64(nil), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := tc.v.Width / 8
			prefix := []byte{0xAA}
			b := tc.v.AppendLE(prefix)
			if len(b) != 1+size*tc.v.Len() || b[0] != 0xAA {
				t.Fatalf("AppendLE wrote %d bytes after the prefix, want %d", len(b)-1, size*tc.v.Len())
			}
			if tc.want != nil && !bytes.Equal(b[1+size:1+2*size], tc.want) {
				t.Fatalf("value 1 on the wire = % x, want % x", b[1+size:1+2*size], tc.want)
			}
			back := Vec{Width: tc.v.Width}.FromLE(b[1:])
			if back.Width != tc.v.Width || back.Len() != tc.v.Len() {
				t.Fatalf("round trip: width %d len %d, want width %d len %d",
					back.Width, back.Len(), tc.v.Width, tc.v.Len())
			}
			if !bytes.Equal(back.AppendLE(nil), b[1:]) {
				t.Fatal("round trip changed bits")
			}
			// FromLE appends: a second call doubles the vector.
			if twice := back.FromLE(b[1:]); twice.Len() != 2*tc.v.Len() {
				t.Fatalf("FromLE onto %d values gave %d, want %d", back.Len(), twice.Len(), 2*tc.v.Len())
			}
		})
	}
	// A trailing partial value is not a value.
	if got := (Vec{Width: 32}).FromLE(make([]byte, 7)).Len(); got != 1 {
		t.Errorf("7 bytes hold %d fp32 values, want 1", got)
	}
	if got := (Vec{Width: 64}).FromLE(make([]byte, 7)).Len(); got != 0 {
		t.Errorf("7 bytes hold %d fp64 values, want 0", got)
	}
}

func TestSliceLenReset(t *testing.T) {
	v32 := Of32([]float32{1, 2, 3, 4, 5})
	if s := v32.Slice(1, 3); s.Width != 32 || !slices.Equal(s.F32, []float32{2, 3}) || s.F64 != nil {
		t.Errorf("fp32 Slice(1,3) = %+v", s)
	}
	v64 := Of64([]float64{1, 2, 3, 4, 5})
	if s := v64.Slice(4, 5); s.Width != 64 || !slices.Equal(s.F64, []float64{5}) || s.F32 != nil {
		t.Errorf("fp64 Slice(4,5) = %+v", s)
	}
	if s := v64.Slice(2, 2); s.Len() != 0 || s.Width != 64 {
		t.Errorf("empty Slice = %+v", s)
	}
	if (Vec{}).Len() != 0 {
		t.Error("zero Vec is not empty")
	}
	r := Vec{Width: 32, F32: make([]float32, 3, 8), F64: make([]float64, 2, 4)}.Reset(0)
	if r.Width != 0 || len(r.F32) != 0 || len(r.F64) != 0 || cap(r.F32) != 8 || cap(r.F64) != 4 {
		t.Errorf("Reset(0) = width %d, %d/%d and %d/%d values", r.Width, len(r.F32), cap(r.F32), len(r.F64), cap(r.F64))
	}
}

// TestBothSetDestination: a Vec holding two buffers is a destination of
// either width; Width alone picks the side that is read and extended,
// and the other side rides along untouched.
func TestBothSetDestination(t *testing.T) {
	dst := Vec{F32: make([]float32, 1, 16), F64: make([]float64, 2, 16)}
	for _, width := range []int{32, 64} {
		d := dst
		d.Width = width
		wantLen := map[int]int{32: 1, 64: 2}[width]
		if d.Len() != wantLen {
			t.Fatalf("width %d: Len = %d, want %d", width, d.Len(), wantLen)
		}
		d = d.FromLE(make([]byte, 16)).Grow(100)
		if d.Len() != wantLen+16/(width/8) {
			t.Errorf("width %d: Len after FromLE = %d", width, d.Len())
		}
		if width == 32 && (len(d.F64) != 2 || cap(d.F64) != 16) || width == 64 && (len(d.F32) != 1 || cap(d.F32) != 16) {
			t.Errorf("width %d: the other side changed: %d/%d fp32, %d/%d fp64",
				width, len(d.F32), cap(d.F32), len(d.F64), cap(d.F64))
		}
	}
}

// TestCodecDispatch: EncodeTo/DecodeAppend are Codec.EncodeTo/DecodeTo
// or the 64-bit pair, by Width, and a failed decode returns the
// destination as passed.
func TestCodecDispatch(t *testing.T) {
	c := avr.NewCodec(0)
	f32 := make([]float32, 300)
	f64 := make([]float64, 300)
	for i := range f32 {
		f32[i] = 100 + float32(i)/50
		f64[i] = 100 + float64(i)/50
	}
	want32, _ := c.Encode(f32)
	want64, _ := c.Encode64(f64)
	for _, tc := range []struct {
		v    Vec
		want []byte
	}{{Of32(f32), want32}, {Of64(f64), want64}} {
		enc, err := tc.v.EncodeTo(c, []byte{7})
		if err != nil || !bytes.Equal(enc[1:], tc.want) {
			t.Fatalf("fp%d EncodeTo differs from the codec's own encode (err %v)", tc.v.Width, err)
		}
		head := Vec{Width: tc.v.Width}.FromLE(make([]byte, 8))
		dec, err := head.DecodeAppend(c, tc.want)
		if err != nil || dec.Len() != head.Len()+300 {
			t.Fatalf("fp%d DecodeAppend: %d values, err %v", tc.v.Width, dec.Len(), err)
		}
		other := Vec{Width: 96 - tc.v.Width, F32: head.F32, F64: head.F64}
		if got, err := other.DecodeAppend(c, tc.want); err == nil || got.Len() != other.Len() {
			t.Fatalf("fp%d stream decoded into an fp%d destination (err %v)", tc.v.Width, other.Width, err)
		}
	}
}

// TestCopyMatchesPortable holds the one-copy AppendLE/FromLE of
// little-endian hosts to the value-by-value loops, bit for bit — NaN
// payloads and signalling NaNs included, which a float conversion on the
// way would quiet.
func TestCopyMatchesPortable(t *testing.T) {
	bits32 := []uint32{0, 0x80000000, 0x3FC00000, 0x7F800000, 0xFF800000,
		0x7FC00000, 0x7FC12345, 0xFFC00001, 0x7F800001, 0xFFBFFFFF, 1, 0x807FFFFF}
	bits64 := []uint64{0, 1 << 63, 0x3FF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
		0x7FF8000000000000, 0x7FF8000012345678, 0xFFF8000000000001, 0x7FF0000000000001, 0xFFF7FFFFFFFFFFFF, 1}
	f32 := make([]float32, len(bits32))
	for i, b := range bits32 {
		f32[i] = math.Float32frombits(b)
	}
	f64 := make([]float64, len(bits64))
	for i, b := range bits64 {
		f64[i] = math.Float64frombits(b)
	}
	for _, v := range []Vec{Of32(f32), Of64(f64), Of32(nil), Of64(nil)} {
		prefix := []byte{0xAA, 0xBB, 0xCC} // an odd offset into dst
		want := v.appendLEPortable(slices.Clone(prefix))
		if got := v.AppendLE(slices.Clone(prefix)); !bytes.Equal(got, want) {
			t.Fatalf("fp%d AppendLE = % x, portable loop % x", v.Width, got, want)
		}
		if got := v.LE(slices.Clone(prefix)); !bytes.Equal(got, want[len(prefix):]) {
			t.Fatalf("fp%d LE = % x, portable loop % x", v.Width, got, want[len(prefix):])
		}
		wire := append(want[len(prefix):], 0xEE) // plus a trailing partial value
		// FromLE appends after what is there (a clone: v must not lend its
		// spare capacity).
		head := v.Slice(0, v.Len()/2)
		head.F32, head.F64 = slices.Clone(head.F32), slices.Clone(head.F64)
		back, ref := head.FromLE(wire), head.fromLEPortable(wire)
		if back.Len() != head.Len()+v.Len() || !bytes.Equal(back.appendLEPortable(nil), ref.appendLEPortable(nil)) {
			t.Fatalf("fp%d FromLE: %d values % x, portable loop %d values % x",
				v.Width, back.Len(), back.appendLEPortable(nil), ref.Len(), ref.appendLEPortable(nil))
		}
	}
}

// TestLEAliasesOnLittleEndian: LE hands out the vector's own memory
// where the host's layout is the wire's, and otherwise the bytes
// AppendLE writes into the scratch it is passed (the fallback is forced
// here, whatever the host).
func TestLEAliasesOnLittleEndian(t *testing.T) {
	v := Of32([]float32{1.5, -2, 3})
	scratch := make([]byte, 5, 64)
	got := v.LE(scratch)
	if !bytes.Equal(got, v.appendLEPortable(nil)) {
		t.Fatalf("LE = % x", got)
	}
	if littleEndian && unsafe.SliceData(got) != (*byte)(unsafe.Pointer(unsafe.SliceData(v.F32))) {
		t.Error("LE copied on a little-endian host")
	}
	defer func(le bool) { littleEndian = le }(littleEndian)
	littleEndian = false
	got = v.LE(scratch)
	if !bytes.Equal(got, v.appendLEPortable(nil)) || unsafe.SliceData(got) != unsafe.SliceData(scratch) {
		t.Fatalf("LE without the little-endian shortcut = % x, not AppendLE into the scratch", got)
	}
}

// The wire conversion of a 16 Ki-value vector, one direction each: what
// every served get and put pays once. Both reuse their destination, so
// neither may allocate.
func BenchmarkVecAppendLE(b *testing.B) {
	for _, v := range []Vec{Of32(make([]float32, 16<<10)), Of64(make([]float64, 16<<10))} {
		b.Run("fp"+strconv.Itoa(v.Width), func(b *testing.B) {
			dst := make([]byte, 0, v.Len()*v.Width/8)
			b.SetBytes(int64(cap(dst)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = v.AppendLE(dst[:0])
			}
		})
	}
}

func BenchmarkVecFromLE(b *testing.B) {
	for _, width := range []int{32, 64} {
		b.Run("fp"+strconv.Itoa(width), func(b *testing.B) {
			wire := make([]byte, (16<<10)*width/8)
			dst := Vec{Width: width}.Grow(16 << 10)
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = dst.Reset(width).FromLE(wire)
			}
		})
	}
}
