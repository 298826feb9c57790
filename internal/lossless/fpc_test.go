package lossless

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func wordsLine(f func(i int) uint32) []byte {
	line := make([]byte, LineBytes)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[4*i:], f(i))
	}
	return line
}

func TestFPCZeroLine(t *testing.T) {
	line := make([]byte, LineBytes)
	// 16 prefixes × 3 bits = 48 bits = 6 bytes.
	if got := CompressedSizeFPC(line); got != 6 {
		t.Errorf("zero line = %d bytes, want 6", got)
	}
}

func TestFPCSmallInts(t *testing.T) {
	line := wordsLine(func(i int) uint32 { return uint32(i - 8) }) // fits 4-bit
	// 48 prefix bits + 16×4 data bits = 112 bits = 14 bytes.
	if got := CompressedSizeFPC(line); got != 14 {
		t.Errorf("small ints = %d bytes, want 14", got)
	}
}

func TestFPCSignExtension(t *testing.T) {
	cases := []struct {
		w    uint32
		bits int
	}{
		{0, 0},
		{7, 4},
		{0xFFFFFFF8, 4}, // -8
		{100, 8},
		{0xFFFFFF80, 8}, // -128
		{30000, 16},
		{0xFFFF8000, 16}, // -32768
		{0x12340000, 16}, // zero-padded halfword
		{0x4A4A4A4A, 16}, // repeated bytes
		{0xDEADBEEF, 32}, // incompressible
		{0x00018000, 32}, // just beyond 16-bit signed
	}
	for _, c := range cases {
		if got := fpcDataBits(c.w); got != c.bits {
			t.Errorf("fpcDataBits(%#x) = %d, want %d", c.w, got, c.bits)
		}
	}
}

func TestFPCRandomIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	line := make([]byte, LineBytes)
	rng.Read(line)
	// Mostly 32-bit words: close to 64 B + prefixes, capped at 64.
	if got := CompressedSizeFPC(line); got != LineBytes {
		t.Errorf("random line = %d, want %d", got, LineBytes)
	}
}

func TestFPCNeverExceedsLineProperty(t *testing.T) {
	f := func(b []byte) bool {
		line := make([]byte, LineBytes)
		copy(line, b)
		s := CompressedSizeFPC(line)
		return s >= 6 && s <= LineBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAlgorithmsComplement(t *testing.T) {
	// FPC beats BDI on small sign-extended ints; BDI beats FPC on large
	// clustered values.
	small := wordsLine(func(i int) uint32 { return uint32(i) })
	if CompressedSizeFPC(small) >= CompressedSize(small) {
		t.Errorf("FPC (%d) should beat BDI (%d) on small ints",
			CompressedSizeFPC(small), CompressedSize(small))
	}
	clustered := wordsLine(func(i int) uint32 {
		return math.Float32bits(1234.5 + float32(i)*0.001)
	})
	if CompressedSize(clustered) >= CompressedSizeFPC(clustered) {
		t.Errorf("BDI (%d) should beat FPC (%d) on clustered floats",
			CompressedSize(clustered), CompressedSizeFPC(clustered))
	}
}

func TestSizeOfDispatch(t *testing.T) {
	line := make([]byte, LineBytes)
	if SizeOf(BDI, line) != CompressedSize(line) {
		t.Error("SizeOf(BDI) mismatch")
	}
	if SizeOf(FPC, line) != CompressedSizeFPC(line) {
		t.Error("SizeOf(FPC) mismatch")
	}
	// The link adds a 1 B form tag and never sends more than the line.
	random := make([]byte, LineBytes)
	rand.New(rand.NewSource(3)).Read(random)
	for _, a := range []Algorithm{BDI, FPC} {
		if got := LinkBytes(a, line); got != SizeOf(a, line)+1 {
			t.Errorf("%v: zero line LinkBytes %d, want %d", a, got, SizeOf(a, line)+1)
		}
		if got := LinkBytes(a, random); got != LineBytes {
			t.Errorf("%v: random line LinkBytes %d, want %d", a, got, LineBytes)
		}
	}
	if BDI.String() != "BDI" || FPC.String() != "FPC" {
		t.Error("Algorithm.String")
	}
}
