package lossless

import (
	"bytes"
	"encoding/binary"
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

// Encode compresses the line: a 1-byte form tag followed by the payload.
// Incompressible lines are stored raw (65 bytes total).
func Encode(line []byte) []byte {
	return AppendEncode(make([]byte, 0, 1+LineBytes), line)
}

// Decode reconstructs the 64-byte line from an Encode stream.
func Decode(data []byte) []byte {
	return DecodeInto(make([]byte, LineBytes), data)
}
