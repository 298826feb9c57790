package mem

import (
	"testing"

	"avr/internal/compress"
)

func TestAllocAlignment(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.Alloc(100, 64)
	if a%64 != 0 {
		t.Errorf("allocation not aligned: %#x", a)
	}
	b := s.Alloc(100, 64)
	if b < a+100 {
		t.Errorf("allocations overlap: %#x after %#x", b, a)
	}
	if a == 0 {
		t.Error("address 0 must stay reserved")
	}
}

func TestAllocPanicsWhenExhausted(t *testing.T) {
	s := NewSpace(PageBytes * 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	s.Alloc(PageBytes*4, 1)
}

func TestAllocPanicsOnBadAlign(t *testing.T) {
	s := NewSpace(1 << 20)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-pow2 align")
		}
	}()
	s.Alloc(8, 3)
}

func TestAllocApproxMarksPages(t *testing.T) {
	s := NewSpace(1 << 20)
	base := s.AllocApprox(3*PageBytes+5, compress.Float32)
	if base%PageBytes != 0 {
		t.Errorf("approx region not page aligned: %#x", base)
	}
	for off := uint64(0); off < 3*PageBytes+5; off += PageBytes {
		info := s.Info(base + off)
		if !info.Approx || info.Type != compress.Float32 {
			t.Errorf("page at +%#x not marked: %+v", off, info)
		}
	}
	// Page after the region must be unmarked.
	if s.Info(base + 4*PageBytes).Approx {
		t.Error("page beyond region marked approx")
	}
}

func TestInfoOutOfRange(t *testing.T) {
	s := NewSpace(PageBytes)
	if s.Info(1 << 40).Approx {
		t.Error("out-of-range info must be zero")
	}
}

func TestApproxBytes(t *testing.T) {
	s := NewSpace(1 << 20)
	s.AllocApprox(2*PageBytes, compress.Float32)
	s.Alloc(PageBytes, PageBytes)
	if got := s.ApproxBytes(); got != 2*PageBytes {
		t.Errorf("ApproxBytes = %d, want %d", got, 2*PageBytes)
	}
}

func TestLoadStore(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.Alloc(64, 64)
	s.Store32(a, 0xDEADBEEF)
	if got := s.Load32(a); got != 0xDEADBEEF {
		t.Errorf("Load32 = %#x", got)
	}
	s.StoreF32(a+4, 3.5)
	if got := s.LoadF32(a + 4); got != 3.5 {
		t.Errorf("LoadF32 = %v", got)
	}
}

func TestLine(t *testing.T) {
	s := NewSpace(1 << 20)
	a := s.Alloc(128, 64)
	s.Store32(a+60, 0x11223344)
	line := s.Line(a + 17)
	if len(line) != 64 {
		t.Fatalf("line length = %d", len(line))
	}
	if line[60] != 0x44 {
		t.Error("line does not alias the backing store")
	}
}

// TestBlockRoundTrip holds the one-copy block moves to the per-value
// accessors: a block written by WriteBlock reads back value for value
// through Load32, a block stored value by value reads back through
// ReadBlock, on the first and the last block of a space's footprint.
func TestBlockRoundTrip(t *testing.T) {
	s := NewSpace(1 << 20)
	first := s.Alloc(compress.BlockBytes, compress.BlockBytes)
	s.Alloc(5*compress.BlockBytes, compress.BlockBytes)
	last := s.Alloc(compress.BlockBytes, compress.BlockBytes)
	if end := last + compress.BlockBytes; end != s.Footprint()+PageBytes {
		t.Fatalf("last block ends at %#x, the break at %#x", end, s.Footprint()+PageBytes)
	}
	for _, base := range []uint64{first, last} {
		var vals, back [compress.BlockValues]uint32
		for i := range vals {
			vals[i] = uint32(i)*0x01030507 ^ uint32(base)
		}
		s.WriteBlock(base+100, &vals) // any addr within the block works
		for i, v := range vals {
			if got := s.Load32(base + uint64(4*i)); got != v {
				t.Fatalf("block %#x value %d: WriteBlock then Load32 = %#x, want %#x", base, i, got, v)
			}
		}
		for i := range vals {
			vals[i] = ^vals[i] * 3
			s.Store32(base+uint64(4*i), vals[i])
		}
		s.ReadBlock(base+compress.BlockBytes-1, &back)
		if back != vals {
			t.Fatalf("block %#x: Store32 then ReadBlock differs", base)
		}
	}
}

func TestAddrHelpers(t *testing.T) {
	if BlockAddr(0x12345) != 0x12000+0x345&^0x3FF {
		// 0x12345 & ^0x3FF == 0x12000
		t.Errorf("BlockAddr = %#x", BlockAddr(0x12345))
	}
}

func TestFootprint(t *testing.T) {
	s := NewSpace(1 << 20)
	if s.Footprint() != 0 {
		t.Errorf("fresh footprint = %d", s.Footprint())
	}
	s.Alloc(100, 1)
	if s.Footprint() != 100 {
		t.Errorf("footprint = %d, want 100", s.Footprint())
	}
}

// TestAllocGrowsBacking checks the lazily grown backing array: contents
// and addresses of earlier allocations survive every growth, new bytes
// read zero, Footprint is still brk less the reserved page, and the capacity given
// to NewSpace still bounds the allocator.
func TestAllocGrowsBacking(t *testing.T) {
	s := NewSpace(64 * PageBytes)
	var addrs []uint64
	for i := 0; i < 20; i++ {
		a := s.Alloc(uint64(100+i*997), 64)
		if len(addrs) > 0 && a < addrs[len(addrs)-1] {
			t.Fatalf("allocation %d at %#x below the previous one", i, a)
		}
		if got := s.Load32(a); got != 0 {
			t.Fatalf("fresh allocation %d reads %#x, want 0", i, got)
		}
		s.Store32(a, uint32(i)+1)
		addrs = append(addrs, a)
	}
	big := s.AllocApprox(8*PageBytes, compress.Float32)
	s.StoreF32(big+8*PageBytes-4, 2.5)
	for i, a := range addrs {
		if got := s.Load32(a); got != uint32(i)+1 {
			t.Fatalf("allocation %d at %#x reads %d after growth, want %d", i, a, got, i+1)
		}
	}
	if got := s.LoadF32(big + 8*PageBytes - 4); got != 2.5 {
		t.Fatalf("last word of the approx region reads %v", got)
	}
	if fp, end := s.Footprint(), big+8*PageBytes; fp != end-PageBytes {
		t.Fatalf("Footprint = %d, want brk-PageBytes = %d", fp, end-PageBytes)
	}
	defer func() {
		if recover() == nil {
			t.Error("allocating past capacity did not panic")
		}
	}()
	s.Alloc(64*PageBytes, 1)
}

func TestApproxBlocksIteration(t *testing.T) {
	s := NewSpace(1 << 20)
	s.Alloc(PageBytes, PageBytes) // exact page
	base := s.AllocApprox(2*PageBytes, compress.Fixed32)
	var blocks []uint64
	s.ApproxBlocks(func(a uint64, dt compress.DataType) {
		blocks = append(blocks, a)
		if dt != compress.Fixed32 {
			t.Errorf("block %#x datatype %v", a, dt)
		}
	})
	// 2 pages × 4 blocks.
	if len(blocks) != 8 {
		t.Fatalf("visited %d blocks, want 8", len(blocks))
	}
	if blocks[0] != base {
		t.Errorf("first block %#x, want %#x", blocks[0], base)
	}
}

func TestAllocApproxThresholds(t *testing.T) {
	s := NewSpace(1 << 20)
	th := &compress.Thresholds{T1: 0.25, T2: 0.125}
	base := s.AllocApproxThresholds(PageBytes, compress.Float32, th)
	info := s.Info(base)
	if info.Thresholds == nil || info.Thresholds.T1 != 0.25 {
		t.Errorf("region thresholds not stored: %+v", info)
	}
	// Plain AllocApprox leaves them nil.
	b2 := s.AllocApprox(PageBytes, compress.Float32)
	if s.Info(b2).Thresholds != nil {
		t.Error("default region has thresholds")
	}
}

// TestImageLoadsOnlyIntoItsLayout: an image restores its footprint's
// bytes into a space laid out as the imaged one was, and a space with
// another break or another page annotation refuses it untouched.
func TestImageLoadsOnlyIntoItsLayout(t *testing.T) {
	layout := func(dt compress.DataType) *Space {
		s := NewSpace(1 << 20)
		s.AllocApprox(2*PageBytes, dt)
		s.Alloc(100, 64)
		return s
	}
	src := layout(compress.Float32)
	src.Store32(PageBytes, 0xDEADBEEF)
	src.Store32(src.brk-4, 7)
	img := src.Image()
	src.Store32(PageBytes, 1) // the image is a copy, not a view

	dst := layout(compress.Float32)
	dst.Store32(16, 0xFEED) // the reserved page is not footprint
	if !dst.LoadImage(img) {
		t.Fatal("a space with the imaged layout refused the image")
	}
	if dst.Load32(PageBytes) != 0xDEADBEEF || dst.Load32(dst.brk-4) != 7 || dst.Load32(16) != 0xFEED {
		t.Errorf("loaded space reads %#x, %d, %#x", dst.Load32(PageBytes), dst.Load32(dst.brk-4), dst.Load32(16))
	}

	longer := layout(compress.Float32)
	longer.Alloc(4, 4)
	otherType := layout(compress.Fixed32)
	for name, s := range map[string]*Space{"break": longer, "page annotation": otherType} {
		if s.LoadImage(img) {
			t.Errorf("a space with another %s took the image", name)
		}
		if s.Load32(PageBytes) != 0 {
			t.Errorf("a refused image wrote the space with another %s", name)
		}
	}
}
