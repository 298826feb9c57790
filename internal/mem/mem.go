// Package mem implements the simulated physical address space: a flat
// byte-addressable memory with a bump allocator, a page table carrying the
// paper's per-page approximable bit and value datatype (§3.1), and
// functional 32-bit access helpers used by the workloads.
//
// The paper annotates approximable regions through a malloc wrapper and an
// OS call that marks pages approximate; AllocApprox plays both roles here.
//
// The byte array always holds the *current reconstruction* of every
// block: when a design compresses (or truncates, or dedups) data on its
// way to memory, the design writes the approximate values back into the
// space, so subsequent reads — and the final program output — observe
// exactly what the modelled hardware would deliver.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"avr/internal/compress"
)

// Page geometry.
const (
	PageBits  = 12
	PageBytes = 1 << PageBits
)

// PageInfo is the per-page annotation: the extra page-table/TLB bit, the
// region's datatype, and — implementing the paper's proposed extension
// (§3.1) — optional per-region error thresholds (nil selects the global
// knob).
type PageInfo struct {
	Approx     bool
	Type       compress.DataType
	Thresholds *compress.Thresholds
}

// Space is a simulated physical address space. Address 0 is reserved (the
// allocator starts at one page) so 0 can act as a nil address.
//
// The backing bytes cover only the pages allocated so far: data grows
// with brk, in whole pages, up to the capacity, so a space sized for the
// largest workload costs a small one only what it allocates.
type Space struct {
	data  []byte
	brk   uint64
	limit uint64 // capacity in bytes
	pages []PageInfo
}

// NewSpace creates an address space of the given capacity (rounded up to
// whole pages).
func NewSpace(capacity int) *Space {
	if capacity <= 0 {
		panic("mem: non-positive capacity")
	}
	np := (capacity + PageBytes - 1) / PageBytes
	return &Space{
		data:  make([]byte, PageBytes),
		brk:   PageBytes, // reserve page 0
		limit: uint64(np) * PageBytes,
		pages: make([]PageInfo, np),
	}
}

// Footprint returns the bytes allocated so far (excluding the reserved
// first page).
func (s *Space) Footprint() uint64 { return s.brk - PageBytes }

// Alloc reserves size bytes aligned to align (a power of two) and returns
// the base address. It panics when the space is exhausted — simulated
// workloads size their inputs to fit.
func (s *Space) Alloc(size, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", align))
	}
	base := (s.brk + align - 1) &^ (align - 1)
	if base+size > s.limit {
		panic(fmt.Sprintf("mem: out of simulated memory (%d + %d > %d)", base, size, s.limit))
	}
	s.brk = base + size
	end := (s.brk + PageBytes - 1) &^ (PageBytes - 1)
	if end > uint64(cap(s.data)) {
		// Double, bounded by the capacity: a layout of many regions copies
		// the array a logarithmic number of times, not once per region.
		grown := make([]byte, end, min(max(end, 2*uint64(cap(s.data))), s.limit))
		copy(grown, s.data)
		s.data = grown
	}
	s.data = s.data[:max(end, uint64(len(s.data)))]
	return base
}

// AllocApprox reserves a page-aligned approximable region of the given
// datatype, marking every covered page (the paper's malloc wrapper +
// approximation system call).
func (s *Space) AllocApprox(size uint64, dt compress.DataType) uint64 {
	return s.AllocApproxThresholds(size, dt, nil)
}

// AllocApproxThresholds is AllocApprox with per-region error thresholds —
// the paper's §3.1 extension ("thresholds per allocated memory region,
// adding a respective field to the page table"). A nil th uses the
// system-wide knob.
func (s *Space) AllocApproxThresholds(size uint64, dt compress.DataType, th *compress.Thresholds) uint64 {
	base := s.Alloc((size+PageBytes-1)&^uint64(PageBytes-1), PageBytes)
	for p := base >> PageBits; p < (base+size+PageBytes-1)>>PageBits; p++ {
		s.pages[p] = PageInfo{Approx: true, Type: dt, Thresholds: th}
	}
	return base
}

// Image is a copy of a space's allocated state: its break, the page
// annotations up to it and the bytes of its footprint. It is never
// written after Image returns it, so any number of spaces may load it at
// once.
type Image struct {
	brk   uint64
	pages []PageInfo
	data  []byte // [PageBytes, brk)
}

// allocatedPages is how many pages the break covers.
func (s *Space) allocatedPages() uint64 { return (s.brk + PageBytes - 1) >> PageBits }

// Image copies the space's allocated state.
func (s *Space) Image() *Image {
	return &Image{
		brk:   s.brk,
		pages: slices.Clone(s.pages[:s.allocatedPages()]),
		data:  slices.Clone(s.data[PageBytes:s.brk]),
	}
}

// Reserve grows the backing array once to hold img's footprint, so a
// layout that allocates up to img's break copies nothing on the way.
func (s *Space) Reserve(img *Image) {
	if n := min((img.brk+PageBytes-1)&^(PageBytes-1), s.limit); n > uint64(cap(s.data)) {
		s.data = append(make([]byte, 0, n), s.data...)
	}
}

// LoadImage copies img's footprint into the space if the space has img's
// layout — the same break and the same page annotations — and reports
// whether it did. A space with another layout is left as it was. The
// reserved first page is not part of the footprint and is never
// written.
func (s *Space) LoadImage(img *Image) bool {
	if s.brk != img.brk || !slices.Equal(s.pages[:s.allocatedPages()], img.pages) {
		return false
	}
	copy(s.data[PageBytes:s.brk], img.data)
	return true
}

// Info returns the page annotation covering addr.
func (s *Space) Info(addr uint64) PageInfo {
	p := addr >> PageBits
	if p >= uint64(len(s.pages)) {
		return PageInfo{}
	}
	return s.pages[p]
}

// ApproxBlocks calls fn for every memory block (1 KiB) lying in an
// approximable page that has been allocated so far.
func (s *Space) ApproxBlocks(fn func(blockAddr uint64, dt compress.DataType)) {
	end := s.allocatedPages()
	for p := uint64(0); p < end && p < uint64(len(s.pages)); p++ {
		if !s.pages[p].Approx {
			continue
		}
		base := p << PageBits
		for b := uint64(0); b < PageBytes/compress.BlockBytes; b++ {
			fn(base+b*compress.BlockBytes, s.pages[p].Type)
		}
	}
}

// ApproxBytes returns the total bytes of pages marked approximable.
func (s *Space) ApproxBytes() uint64 {
	var n uint64
	for _, p := range s.pages {
		if p.Approx {
			n += PageBytes
		}
	}
	return n
}

// Load32 reads the raw 32-bit pattern at addr (must be 4-aligned).
func (s *Space) Load32(addr uint64) uint32 {
	return binary.LittleEndian.Uint32(s.data[addr:])
}

// Store32 writes the raw 32-bit pattern at addr.
func (s *Space) Store32(addr uint64, v uint32) {
	binary.LittleEndian.PutUint32(s.data[addr:], v)
}

// LoadF32 reads an IEEE-754 float at addr.
func (s *Space) LoadF32(addr uint64) float32 {
	return math.Float32frombits(s.Load32(addr))
}

// StoreF32 writes an IEEE-754 float at addr.
func (s *Space) StoreF32(addr uint64, v float32) {
	s.Store32(addr, math.Float32bits(v))
}

// Line returns the 64-byte slice backing the cacheline at addr.
func (s *Space) Line(addr uint64) []byte {
	base := addr &^ 63
	return s.data[base : base+64]
}

// ReadBlock copies the 256 values of the 1 KiB memory block containing
// addr into vals.
func (s *Space) ReadBlock(addr uint64, vals *[compress.BlockValues]uint32) {
	base := addr &^ (compress.BlockBytes - 1)
	copy(blockBytes(vals)[:], s.data[base:base+compress.BlockBytes])
}

// WriteBlock overwrites the memory block containing addr with vals.
func (s *Space) WriteBlock(addr uint64, vals *[compress.BlockValues]uint32) {
	base := addr &^ (compress.BlockBytes - 1)
	copy(s.data[base:base+compress.BlockBytes], blockBytes(vals)[:])
}

// blockBytes views a block's values as their 1 KiB in memory, so a block
// moves between the space and a value array as one copy. The space holds
// every value little-endian (Load32, Store32), so the view is its byte
// image only on a little-endian host; init refuses any other.
func blockBytes(vals *[compress.BlockValues]uint32) *[compress.BlockBytes]byte {
	return (*[compress.BlockBytes]byte)(unsafe.Pointer(vals))
}

func init() {
	if binary.NativeEndian.Uint32([]byte{1, 0, 0, 0}) != 1 {
		panic("mem: ReadBlock and WriteBlock need a little-endian host")
	}
}

// BlockAddr returns the base address of the memory block containing addr.
func BlockAddr(addr uint64) uint64 { return addr &^ (compress.BlockBytes - 1) }
