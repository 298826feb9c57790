package lossless

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func lineOf(f func(i int) uint64, width int) []byte {
	line := make([]byte, LineBytes)
	for off := 0; off < LineBytes; off += width {
		switch width {
		case 8:
			binary.LittleEndian.PutUint64(line[off:], f(off/width))
		case 4:
			binary.LittleEndian.PutUint32(line[off:], uint32(f(off/width)))
		case 2:
			binary.LittleEndian.PutUint16(line[off:], uint16(f(off/width)))
		}
	}
	return line
}

func TestZeroLine(t *testing.T) {
	line := make([]byte, LineBytes)
	if got := CompressedSize(line); got != 1 {
		t.Errorf("zero line size = %d, want 1", got)
	}
	if !bytes.Equal(Decode(Encode(line)), line) {
		t.Error("zero line round trip failed")
	}
}

func TestRepeatedValue(t *testing.T) {
	line := lineOf(func(int) uint64 { return 0xDEADBEEFCAFEF00D }, 8)
	if got := CompressedSize(line); got != 8 {
		t.Errorf("repeated line size = %d, want 8", got)
	}
	if !bytes.Equal(Decode(Encode(line)), line) {
		t.Error("repeat round trip failed")
	}
}

func TestBase8Delta1(t *testing.T) {
	// Pointers into the same structure: 8-byte values within ±128.
	line := lineOf(func(i int) uint64 { return 0x7FFF00001000 + uint64(i*8) }, 8)
	if got := CompressedSize(line); got != 16 {
		t.Errorf("pointer line size = %d, want 16", got)
	}
	if !bytes.Equal(Decode(Encode(line)), line) {
		t.Error("base8-Δ1 round trip failed")
	}
}

func TestBase4Delta1(t *testing.T) {
	// Small ints near a common base.
	line := lineOf(func(i int) uint64 { return 1000 + uint64(i) }, 4)
	got := CompressedSize(line)
	if got > 20 {
		t.Errorf("int line size = %d, want ≤ 20", got)
	}
	if !bytes.Equal(Decode(Encode(line)), line) {
		t.Error("base4 round trip failed")
	}
}

func TestNegativeDeltas(t *testing.T) {
	line := lineOf(func(i int) uint64 { return uint64(int64(5000 - i*3)) }, 4)
	if !bytes.Equal(Decode(Encode(line)), line) {
		t.Error("negative delta round trip failed")
	}
	if CompressedSize(line) >= LineBytes {
		t.Error("descending ints should compress")
	}
}

func TestIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	line := make([]byte, LineBytes)
	rng.Read(line)
	if got := CompressedSize(line); got != LineBytes {
		t.Errorf("random line size = %d, want 64", got)
	}
	if !bytes.Equal(Decode(Encode(line)), line) {
		t.Error("raw round trip failed")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: Decode(Encode(line)) == line for arbitrary content.
	f := func(seed int64, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		line := make([]byte, LineBytes)
		switch mode % 4 {
		case 0:
			rng.Read(line)
		case 1: // clustered 8-byte values
			base := rng.Uint64()
			for off := 0; off < LineBytes; off += 8 {
				binary.LittleEndian.PutUint64(line[off:], base+uint64(rng.Intn(256))-128)
			}
		case 2: // clustered 4-byte values
			base := rng.Uint32()
			for off := 0; off < LineBytes; off += 4 {
				binary.LittleEndian.PutUint32(line[off:], base+uint32(rng.Intn(60000)))
			}
		case 3: // sparse zeros
			for i := 0; i < 4; i++ {
				line[rng.Intn(LineBytes)] = byte(rng.Intn(256))
			}
		}
		return bytes.Equal(Decode(Encode(line)), line)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSizeMatchesEncodeProperty(t *testing.T) {
	// Property: CompressedSize == len(Encode)-1, except raw lines where
	// the tag byte is overhead.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		line := make([]byte, LineBytes)
		if seed%2 == 0 {
			base := rng.Uint64()
			for off := 0; off < LineBytes; off += 8 {
				binary.LittleEndian.PutUint64(line[off:], base+uint64(rng.Intn(100)))
			}
		} else {
			rng.Read(line)
		}
		return CompressedSize(line) == len(Encode(line))-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSizeNeverExceedsLine(t *testing.T) {
	f := func(b []byte) bool {
		line := make([]byte, LineBytes)
		copy(line, b)
		s := CompressedSize(line)
		return s >= 1 && s <= LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// oneOff returns a line of base repeated in every width-byte segment
// but segment seg, which holds base+d wrapped to the width.
func oneOff(width, seg int, base uint64, d int64) []byte {
	return lineOf(func(i int) uint64 {
		if i == seg {
			return base + uint64(d)
		}
		return base
	}, width)
}

// TestFormBoundaries pins the chosen tag and payload size at both ends
// of each delta width (k = 8, 16, 32 bits) for each base width. The
// base values have segments of the narrower widths far apart, so only
// the intended base width can fit; the odd segment sits where no wider
// base sees it as a small delta (the high half or lane of a word).
func TestFormBoundaries(t *testing.T) {
	const (
		base8 = 0x89ABCDEF01234567 // 32- and 16-bit segments far apart
		base4 = 0x89AB4567         // 16-bit halves far apart
		base2 = 0x4567
	)
	type row struct {
		name    string
		line    []byte
		tag     byte
		payload int
	}
	var rows []row
	add := func(name string, width, seg int, base uint64, d int64, tag byte, payload int) {
		rows = append(rows, row{name, oneOff(width, seg, base, d), tag, payload})
	}
	// base 8: word 1 (inside the early reject's view) and word 7.
	for _, seg := range []int{1, 7} {
		add("b8/k8/min", 8, seg, base8, -128, 2, 16)
		add("b8/k8/max", 8, seg, base8, 127, 2, 16)
		add("b8/k8/over", 8, seg, base8, 128, 3, 24)
		add("b8/k16/min", 8, seg, base8, -32768, 3, 24)
		add("b8/k16/max", 8, seg, base8, 32767, 3, 24)
		add("b8/k16/over", 8, seg, base8, 32768, 5, 40)
		add("b8/k32/min", 8, seg, base8, -1<<31, 5, 40)
		add("b8/k32/max", 8, seg, base8, 1<<31-1, 5, 40)
		add("b8/k32/over", 8, seg, base8, 1<<31, idRaw, 64)
	}
	// base 4: segment 3 (word 1's high half) and 15 (word 7's).
	for _, seg := range []int{3, 15} {
		add("b4/k8/min", 4, seg, base4, -128, 4, 20)
		add("b4/k8/max", 4, seg, base4, 127, 4, 20)
		add("b4/k8/over", 4, seg, base4, 128, 6, 36)
		add("b4/k16/min", 4, seg, base4, -32768, 6, 36)
		add("b4/k16/max", 4, seg, base4, 32767, 6, 36)
		add("b4/k16/over", 4, seg, base4, 32768, idRaw, 64)
		add("b4/k32/min", 4, seg, base4, -1<<31, idRaw, 64)
		add("b4/k32/max", 4, seg, base4, 1<<31-1, idRaw, 64)
		add("b4/k32/over", 4, seg, base4, 1<<31, idRaw, 64) // wraps to -1<<31
	}
	// base 2: segment 3 (word 0's top lane) and 31 (word 7's).
	for _, seg := range []int{3, 31} {
		add("b2/k8/min", 2, seg, base2, -128, 7, 34)
		add("b2/k8/max", 2, seg, base2, 127, 7, 34)
		add("b2/k8/over", 2, seg, base2, 128, idRaw, 64)
		add("b2/k16/min", 2, seg, base2, -32768, idRaw, 64)
		add("b2/k16/max", 2, seg, base2, 32767, idRaw, 64)
		add("b2/k16/over", 2, seg, base2, 32768, idRaw, 64) // wraps to -32768
		add("b2/k32/min", 2, seg, base2, -1<<31, idRepeat, 8)
		add("b2/k32/max", 2, seg, base2, 1<<31-1, 7, 34) // wraps to -1
		add("b2/k32/over", 2, seg, base2, 1<<31, idRepeat, 8)
	}
	// The early reject's edge: word 1 fails base8-Δ4 and segment 2 fails
	// base4-Δ2, but word 0's 16-bit lanes all match, so only the lanes
	// past word 1 decide. All close: base2-Δ1; one lane in word 7 far
	// off: raw, found by the full pass.
	lanes := func(far bool) []byte {
		return lineOf(func(i int) uint64 {
			switch {
			case i >= 4 && i < 8:
				return 0x8000 + 0x7F
			case far && i == 31:
				return 0x8000 + 0x80
			}
			return 0x8000
		}, 2)
	}
	rows = append(rows,
		row{"edge/lanes-past-word1-close", lanes(false), 7, 34},
		row{"edge/lanes-past-word1-far", lanes(true), idRaw, 64})

	for _, r := range rows {
		ref, refSize := refBestForm(r.line)
		enc := Encode(r.line)
		if enc[0] != r.tag || CompressedSize(r.line) != r.payload || len(enc) != EncodedLen(r.tag) {
			t.Errorf("%s: tag %d size %d len %d, want tag %d size %d len %d",
				r.name, enc[0], CompressedSize(r.line), len(enc), r.tag, r.payload, EncodedLen(r.tag))
		}
		if ref != r.tag || refSize != r.payload {
			t.Errorf("%s: reference says tag %d size %d, table says %d %d", r.name, ref, refSize, r.tag, r.payload)
		}
		if !bytes.Equal(Decode(enc), r.line) {
			t.Errorf("%s: round trip failed", r.name)
		}
	}
}

func TestEncodedLenMatchesReference(t *testing.T) {
	for tag := 0; tag < 256; tag++ {
		want := 0
		switch tag {
		case idRaw:
			want = 1 + LineBytes
		case idZeros:
			want = 2
		case idRepeat:
			want = 9
		default:
			for _, f := range refForms {
				if f.id == byte(tag) {
					want = 1 + f.baseBytes + LineBytes/f.baseBytes*f.deltaBits/8
				}
			}
		}
		if got := EncodedLen(byte(tag)); got != want {
			t.Errorf("EncodedLen(%d) = %d, want %d", tag, got, want)
		}
	}
}

// genLine fills line by one of the shapes the differential draws from:
// noise, values clustered at 8, 4 or 2 bytes with deltas straddling a
// width's limits, zeros, repeats, single-bit flips of those, fp32 noise
// and smooth fp32.
func genLine(rng *rand.Rand, line []byte, mode int) {
	near := func(bits int) uint64 {
		lim := int64(1) << (bits - 1)
		return uint64(rng.Int63n(2*lim+4) - lim - 2)
	}
	clear(line)
	switch mode % 9 {
	case 0:
		rng.Read(line)
	case 1:
		base, bits := rng.Uint64(), []int{8, 16, 32}[rng.Intn(3)]
		copy(line, lineOf(func(int) uint64 { return base + near(bits) }, 8))
	case 2:
		base, bits := rng.Uint64(), []int{8, 16}[rng.Intn(2)]
		copy(line, lineOf(func(int) uint64 { return base + near(bits) }, 4))
	case 3:
		base := rng.Uint64()
		copy(line, lineOf(func(int) uint64 { return base + near(8) }, 2))
	case 4: // zeros
	case 5:
		v := rng.Uint64()
		copy(line, lineOf(func(int) uint64 { return v }, 8))
	case 6:
		genLine(rng, line, []int{1, 2, 3, 4, 5}[rng.Intn(5)])
		line[rng.Intn(LineBytes)] ^= 1 << rng.Intn(8)
	case 7:
		copy(line, lineOf(func(int) uint64 { return uint64(math.Float32bits(float32(rng.NormFloat64()))) }, 4))
	case 8:
		x := rng.Float64()
		copy(line, lineOf(func(i int) uint64 { return uint64(math.Float32bits(float32(math.Sin(x + float64(i)*1e-5)))) }, 4))
	}
}

// checkAgainstReference holds AppendEncode to the reference encoder's
// bytes, CompressedSize to its size, and DecodeInto to the line.
func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	got := AppendEncode(nil, line)
	want := refAppendEncode(nil, line)
	if !bytes.Equal(got, want) {
		t.Fatalf("line %x: encoded %x, reference %x", line, got, want)
	}
	if _, size := refBestForm(line); CompressedSize(line) != size {
		t.Fatalf("line %x: size %d, reference %d", line, CompressedSize(line), size)
	}
	if back := DecodeInto(make([]byte, LineBytes), got); !bytes.Equal(back, line) {
		t.Fatalf("line %x: decoded %x", line, back)
	}
}

func TestBDIMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	line := make([]byte, LineBytes)
	for i := 0; i < 200_000; i++ {
		genLine(rng, line, i)
		checkAgainstReference(t, line)
	}
}

func FuzzBDIDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for mode := 0; mode < 9; mode++ {
		line := make([]byte, LineBytes)
		genLine(rng, line, mode)
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line := make([]byte, LineBytes)
		copy(line, data)
		checkAgainstReference(t, line)
	})
}

func benchmarkEncode(b *testing.B, mode int) {
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, 1024*LineBytes)
	for off := 0; off < len(raw); off += LineBytes {
		genLine(rng, raw[off:off+LineBytes], mode)
	}
	dst := make([]byte, 0, len(raw)+len(raw)/LineBytes)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		for off := 0; off < len(raw); off += LineBytes {
			dst = AppendEncode(dst, raw[off:off+LineBytes])
		}
	}
}

// BenchmarkBDIEncodeNoise encodes 1024 lines of fp32 noise, what the
// store's lossless fallback sees for a key that does not compress:
// nearly every line is raw, decided by the early reject.
func BenchmarkBDIEncodeNoise(b *testing.B) { benchmarkEncode(b, 7) }

// BenchmarkBDIEncodeSmooth encodes 1024 lines of a slowly varying fp32
// signal, which base4 forms encode: every line takes the full pass.
func BenchmarkBDIEncodeSmooth(b *testing.B) { benchmarkEncode(b, 8) }

// Encode compresses the line: a 1-byte form tag followed by the payload.
// Incompressible lines are stored raw (65 bytes total).
func Encode(line []byte) []byte {
	return AppendEncode(make([]byte, 0, 1+LineBytes), line)
}

// Decode reconstructs the 64-byte line from an Encode stream.
func Decode(data []byte) []byte {
	return DecodeInto(make([]byte, LineBytes), data)
}

// The reference classifier and encoder: BDI as first written, trying
// each form in turn through fits with a per-segment width switch.
// AppendEncode must produce its bytes for every line.

type refForm struct {
	id        byte
	baseBytes int // segment size (8, 4 or 2)
	deltaBits int // bits per delta
}

var refForms = []refForm{
	{id: 2, baseBytes: 8, deltaBits: 8},  // base8-Δ1: 8 + 8×1 = 16 B
	{id: 3, baseBytes: 8, deltaBits: 16}, // base8-Δ2: 8 + 8×2 = 24 B
	{id: 4, baseBytes: 4, deltaBits: 8},  // base4-Δ1: 4 + 16×1 = 20 B
	{id: 5, baseBytes: 8, deltaBits: 32}, // base8-Δ4: 8 + 8×4 = 40 B
	{id: 6, baseBytes: 4, deltaBits: 16}, // base4-Δ2: 4 + 16×2 = 36 B
	{id: 7, baseBytes: 2, deltaBits: 8},  // base2-Δ1: 2 + 32×1 = 34 B
}

// refBestForm picks the smallest encoding: its tag and payload size.
func refBestForm(line []byte) (byte, int) {
	if refAllZero(line) {
		return idZeros, 1
	}
	if refRepeated8(line) {
		return idRepeat, 8
	}
	best, bestSize := byte(idRaw), LineBytes
	for _, f := range refForms {
		size := f.baseBytes + (LineBytes/f.baseBytes)*(f.deltaBits/8)
		if size >= bestSize {
			continue
		}
		if refFits(line, f) {
			best, bestSize = f.id, size
		}
	}
	return best, bestSize
}

func refAllZero(line []byte) bool {
	for _, b := range line {
		if b != 0 {
			return false
		}
	}
	return true
}

func refRepeated8(line []byte) bool {
	first := binary.LittleEndian.Uint64(line)
	for off := 8; off < LineBytes; off += 8 {
		if binary.LittleEndian.Uint64(line[off:]) != first {
			return false
		}
	}
	return true
}

// refSegment reads the base-sized unsigned value at offset off.
func refSegment(line []byte, off, baseBytes int) uint64 {
	switch baseBytes {
	case 8:
		return binary.LittleEndian.Uint64(line[off:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(line[off:]))
	default:
		return uint64(binary.LittleEndian.Uint16(line[off:]))
	}
}

// refFits reports whether every segment's delta from the first segment
// fits in the form's signed delta width.
func refFits(line []byte, f refForm) bool {
	base := refSegment(line, 0, f.baseBytes)
	lim := int64(1) << (f.deltaBits - 1)
	for off := 0; off < LineBytes; off += f.baseBytes {
		d := int64(refSegment(line, off, f.baseBytes) - base)
		// Sign-extend the subtraction for sub-64-bit segments.
		if f.baseBytes != 8 {
			shift := uint(64 - f.baseBytes*8)
			d = int64(uint64(d)<<shift) >> shift
		}
		if d < -lim || d >= lim {
			return false
		}
	}
	return true
}

func refAppendEncode(dst []byte, line []byte) []byte {
	id, _ := refBestForm(line)
	out := append(dst, id)
	switch id {
	case idZeros:
		return append(out, 0)
	case idRepeat:
		return append(out, line[:8]...)
	case idRaw:
		return append(out, line...)
	}
	var f refForm
	for _, rf := range refForms {
		if rf.id == id {
			f = rf
		}
	}
	out = append(out, line[:f.baseBytes]...)
	base := refSegment(line, 0, f.baseBytes)
	db := f.deltaBits / 8
	for off := 0; off < LineBytes; off += f.baseBytes {
		d := refSegment(line, off, f.baseBytes) - base
		for b := 0; b < db; b++ {
			out = append(out, byte(d>>(8*b)))
		}
	}
	return out
}
