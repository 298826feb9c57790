// Package cmt implements the AVR Compression Metadata Table (ICPP'19
// §3.2, Fig. 3): per-block compression metadata stored in main memory and
// cached on-chip in a TLB-like structure.
//
// Each 4 KiB page has four 23-bit entries, one per 1 KiB memory block:
//
//	size    3 b  compressed size − 1 (1..8 lines)
//	method  2 b  uncompressed / 1D / 2D
//	bias    8 b  exponent bias applied at compression
//	#lazy   4 b  lazily evicted uncompressed lines in the block's slot
//	#failed 2 b  consecutive failed compression attempts (saturating)
//	#skip   4 b  remaining recompression attempts to skip
//
// The on-chip CMT cache is updated in pair with the TLB; each miss
// fetches the page's four entries from memory, adding a few bytes of
// traffic, and dirty evictions write them back.
package cmt

import (
	"fmt"

	"avr/internal/compress"
)

// EntryBits is the metadata size per block; PageEntryBytes is the traffic
// cost of moving one page's four entries (4 × 23 bits rounded up).
const (
	EntryBits      = 23
	BlocksPerPage  = 4
	PageEntryBytes = (EntryBits*BlocksPerPage + 7) / 8 // 12 B
)

// maxFailed is the saturation point of the 2-bit failure counter.
const maxFailed = 3

// maxSkip is the cap of the 4-bit skip counter.
const maxSkip = 15

// Entry is the decoded metadata of one memory block.
type Entry struct {
	// Compressed reports whether the block is stored compressed in memory.
	Compressed bool
	// SizeLines is the compressed size in cachelines (1..8); meaningless
	// when !Compressed.
	SizeLines uint8
	// Method is the downsampling variant used.
	Method compress.Method
	// Bias is the exponent bias applied during compression.
	Bias int8
	// Lazy counts lazily evicted uncompressed cachelines currently stored
	// in the block's free space.
	Lazy uint8
	// Failed counts consecutive failed compression attempts (saturates).
	Failed uint8
	// Skip is the number of upcoming recompression attempts to skip.
	Skip uint8
}

// FreeLazySlots returns how many more lazy evictions the block's memory
// slot can absorb.
func (e *Entry) FreeLazySlots() int {
	if !e.Compressed {
		return 0
	}
	free := compress.BlockLines - int(e.SizeLines) - int(e.Lazy)
	if free < 0 {
		return 0
	}
	return free
}

// ReadLines returns how many cachelines a fetch of this block from memory
// transfers: the compressed lines plus any lazily evicted lines, or the
// full block when uncompressed.
func (e *Entry) ReadLines() int {
	if !e.Compressed {
		return compress.BlockLines
	}
	return int(e.SizeLines) + int(e.Lazy)
}

// RecordSuccess resets the failure history after a successful compression
// and installs the new size/method/bias.
func (e *Entry) RecordSuccess(sizeLines int, m compress.Method, bias int8) {
	e.Compressed = true
	e.SizeLines = uint8(sizeLines)
	e.Method = m
	e.Bias = bias
	e.Lazy = 0
	e.Failed = 0
	e.Skip = 0
}

// RecordFailure marks a failed compression attempt: the block becomes
// uncompressed and the next (2^failed − 1) recompression attempts will be
// skipped (§3.2, §3.5 "Max tries").
func (e *Entry) RecordFailure() {
	e.Compressed = false
	e.SizeLines = 0
	e.Lazy = 0
	if e.Failed < maxFailed {
		e.Failed++
	}
	skip := (1 << e.Failed) - 1
	if skip > maxSkip {
		skip = maxSkip
	}
	e.Skip = uint8(skip)
}

// ShouldAttempt consults and updates the skip schedule: it returns false
// (consuming one skip credit) when the recompression attempt should be
// skipped because the block compressed badly in the recent past.
func (e *Entry) ShouldAttempt() bool {
	if e.Skip > 0 {
		e.Skip--
		return false
	}
	return true
}

// Stats aggregates CMT cache behaviour.
type Stats struct {
	Lookups      uint64
	Misses       uint64
	Writebacks   uint64
	TrafficBytes uint64
}

// pageShift is log2(BlocksPerPage): block number -> CMT page number.
const pageShift = 2

// Table models the in-memory metadata table plus its on-chip cache. The
// backing table is complete (every block has an entry, default
// uncompressed); the cache determines traffic. Lookups return pointers so
// the AVR layer mutates entries in place; mutating marks the cached page
// dirty via Touch.
//
// The backing store is page-granular entry slabs: slabs[page] points at a
// fixed array of the page's BlocksPerPage entries, so the hot Lookup path
// is two shifts and a pointer index — no map probe, and no allocation
// once a page's slab exists. Growing the outer slice relocates only the
// slab pointers; the entries themselves never move, so returned *Entry
// pointers stay valid for the table's lifetime.
type Table struct {
	blockBytes uint64
	blockShift uint // log2(blockBytes)

	slabs []*[BlocksPerPage]Entry // CMT page number -> entry slab

	// CMT cache: page-granular, fully associative LRU. nodes mirrors the
	// slabs indexing (page number -> resident node, nil when absent) so
	// the cache probe is a pointer index too; freed nodes are recycled so
	// steady-state misses allocate nothing.
	capacity int
	nodes    []*pageNode
	nCached  int
	head     *pageNode // most recent
	tail     *pageNode // least recent
	free     *pageNode // recycled nodes

	stats Stats
}

type pageNode struct {
	page       uint64
	dirty      bool
	prev, next *pageNode
}

// NewTable creates a metadata table for blocks of blockBytes (1 KiB in
// the paper) with an on-chip cache of cachePages page entries.
func NewTable(blockBytes int, cachePages int) *Table {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic(fmt.Sprintf("cmt: blockBytes %d must be a power of two", blockBytes))
	}
	if cachePages < 1 {
		cachePages = 1
	}
	bs := uint(0)
	for 1<<bs < blockBytes {
		bs++
	}
	return &Table{
		blockBytes: uint64(blockBytes),
		blockShift: bs,
		capacity:   cachePages,
	}
}

// Lookup returns the metadata entry for the block containing addr,
// modelling the CMT cache access. The returned pointer stays valid for
// the simulation's lifetime.
func (t *Table) Lookup(addr uint64) *Entry {
	bn := addr >> t.blockShift
	page := bn >> pageShift
	t.touchPage(page, false)
	slab := t.slab(page)
	return &slab[bn&(BlocksPerPage-1)]
}

// slab returns the entry slab for page, materialising it on first touch.
func (t *Table) slab(page uint64) *[BlocksPerPage]Entry {
	if page < uint64(len(t.slabs)) {
		if s := t.slabs[page]; s != nil {
			return s
		}
	}
	return t.growSlab(page)
}

// growSlab is the Lookup cold path: extend the page directory and/or
// allocate the page's slab.
func (t *Table) growSlab(page uint64) *[BlocksPerPage]Entry {
	if page >= uint64(len(t.slabs)) {
		grown := make([]*[BlocksPerPage]Entry, page+1+page/2)
		copy(grown, t.slabs)
		t.slabs = grown
	}
	s := new([BlocksPerPage]Entry)
	t.slabs[page] = s
	return s
}

// MarkDirty records that the entry for addr was mutated, so its cached
// page must eventually be written back.
func (t *Table) MarkDirty(addr uint64) {
	t.touchPage(addr>>t.blockShift>>pageShift, true)
}

// touchPage performs the CMT cache access for a page.
func (t *Table) touchPage(page uint64, dirty bool) {
	t.stats.Lookups++
	if page < uint64(len(t.nodes)) {
		if n := t.nodes[page]; n != nil {
			n.dirty = n.dirty || dirty
			t.moveToFront(n)
			return
		}
	}
	t.stats.Misses++
	t.stats.TrafficBytes += PageEntryBytes // fetch entries with the TLB fill
	n := t.newNode(page, dirty)
	if page >= uint64(len(t.nodes)) {
		grown := make([]*pageNode, page+1+page/2)
		copy(grown, t.nodes)
		t.nodes = grown
	}
	t.nodes[page] = n
	t.nCached++
	t.pushFront(n)
	if t.nCached > t.capacity {
		t.evictLRU()
	}
}

// newNode takes a node from the free list or allocates one.
func (t *Table) newNode(page uint64, dirty bool) *pageNode {
	n := t.free
	if n != nil {
		t.free = n.next
		*n = pageNode{page: page, dirty: dirty}
		return n
	}
	return &pageNode{page: page, dirty: dirty}
}

func (t *Table) evictLRU() {
	v := t.tail
	if v == nil {
		return
	}
	t.unlink(v)
	t.nodes[v.page] = nil
	t.nCached--
	if v.dirty {
		t.stats.Writebacks++
		t.stats.TrafficBytes += PageEntryBytes
	}
	v.next = t.free
	t.free = v
}

func (t *Table) pushFront(n *pageNode) {
	n.prev = nil
	n.next = t.head
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
}

func (t *Table) unlink(n *pageNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (t *Table) moveToFront(n *pageNode) {
	if t.head == n {
		return
	}
	t.unlink(n)
	t.pushFront(n)
}

// Stats returns a copy of the accumulated cache statistics.
func (t *Table) Stats() Stats { return t.stats }

// CompressedBlocks counts blocks currently marked compressed, and their
// total compressed lines — used for the footprint/compression-ratio
// experiment (Table 4).
func (t *Table) CompressedBlocks() (blocks int, lines int) {
	for _, slab := range t.slabs {
		if slab == nil {
			continue
		}
		for i := range slab {
			if slab[i].Compressed {
				blocks++
				lines += int(slab[i].SizeLines)
			}
		}
	}
	return blocks, lines
}
