// Package cache implements a generic set-associative write-back,
// write-allocate cache model with true-LRU replacement. It provides the
// L1 and L2 private caches of the simulated CMP (Table 1 of the paper)
// and the data store of the baseline LLC designs.
//
// The model tracks tags and state only; functional data lives in the
// simulated address space (see internal/mem). The hot path (Access on a
// hit) is allocation-free.
//
// A set's state is two arrays. keys holds one word per way: tag<<2|2
// for a valid line, with the dirty flag in bit 0, and 0 for an invalid
// one, so a lookup is one compare per way. orders holds one word per
// set, the set's exact LRU order (order.go): its way numbers as nibbles,
// MRU first, with the invalid ways kept at the LRU end, lowest-numbered
// last. The victim is the way in the LRU nibble, read without a scan:
// the first invalid way, or the least recently touched line when the set
// is full. A hit moves its way to the front, and a hit on the line the
// cache last hit is answered from a one-line memo without a way scan
// (that line is still its set's MRU way until the next Allocate,
// Invalidate or FlushAll, which clear the memo). cache_test.go keeps a
// line-struct reference model (explicit valid bit, per-way stamps,
// "first invalid way, else LRU") that the differential tests hold this
// one to.
package cache

import "fmt"

// Stats aggregates cache behaviour counters.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// Victim describes a line displaced by an allocation.
type Victim struct {
	// Valid reports whether a valid line was displaced at all.
	Valid bool
	// Dirty reports whether the displaced line must be written back.
	Dirty bool
	// Addr is the base address of the displaced line.
	Addr uint64
}

const (
	dirtyBit = 1          // a key's dirty flag
	validBit = 2          // set in every valid key, so no valid key is 0
	noLine   = ^uint64(0) // the memo's "none": lines are at least 4 B, so no line number is all ones
)

// Cache is a set-associative cache. It is not safe for concurrent use.
type Cache struct {
	lineBytes  int
	sets       int
	ways       int
	offsetBits uint
	setBits    uint // log2(sets)
	tagShift   uint // offsetBits + setBits
	lruShift   uint // 4*(ways-1): the LRU position's nibble in an order
	indexMask  uint64
	orderMask  order    // the nibbles a set's order uses
	keys       []uint64 // sets × ways, row-major: tag<<2|2|dirty, 0 when invalid
	orders     []order  // per set
	lastLine   uint64   // addr>>offsetBits of the last hit, noLine when none
	last       int      // that line's index in keys: it is its set's MRU way
	stats      Stats
}

// New creates a cache of capacityBytes organised as ways-associative sets
// of lineBytes lines. Capacity, ways and line size must yield a
// power-of-two number of sets, lines of at least 4 bytes and at most 16
// ways.
func New(capacityBytes, ways, lineBytes int) *Cache {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	if ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways, an order ranks at most %d", ways, maxWays))
	}
	sets := capacityBytes / (ways * lineBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", sets))
	}
	if lineBytes&(lineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	if lineBytes < 4 {
		// A key keeps two flag bits below the tag, and the memo's noLine
		// must not be a line number.
		panic("cache: lines under 4 bytes")
	}
	ob := uint(setsBits(lineBytes))
	sb := uint(setsBits(sets))
	c := &Cache{
		lineBytes:  lineBytes,
		sets:       sets,
		ways:       ways,
		offsetBits: ob,
		setBits:    sb,
		tagShift:   ob + sb,
		lruShift:   4 * uint(ways-1),
		indexMask:  uint64(sets - 1),
		orderMask:  order(^uint64(0) >> (64 - 4*uint(ways))),
		keys:       make([]uint64, sets*ways),
		orders:     make([]order, sets),
	}
	c.reset()
	return c
}

// reset starts every set's order over as all ways invalid, and clears
// the last-hit memo.
func (c *Cache) reset() {
	o := newOrder(c.ways)
	for s := range c.orders {
		c.orders[s] = o
	}
	c.lastLine = noLine
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

func (c *Cache) set(addr uint64) int {
	return int((addr >> c.offsetBits) & c.indexMask)
}

func (c *Cache) tag(addr uint64) uint64 {
	return addr >> c.tagShift
}

// setsBits returns log2(n) rounded up, the bits of a set (or offset)
// number; called at New, never per access.
func setsBits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// find returns the index of addr's line, the first matching way of its
// set, or -1 when it is absent.
func (c *Cache) find(addr uint64) int {
	base := c.set(addr) * c.ways
	want := c.tag(addr)<<2 | validBit | dirtyBit
	for w, k := range c.keys[base : base+c.ways] {
		if k|dirtyBit == want {
			return base + w
		}
	}
	return -1
}

// Access performs a load (write=false) or store (write=true) lookup. It
// returns whether the access hit. The caller handles miss fills via
// Allocate; Access does not allocate.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.stats.Accesses++
	line := addr >> c.offsetBits
	if line == c.lastLine {
		// The last hit's line is still its set's MRU way: nothing moves.
		if write {
			c.keys[c.last] |= dirtyBit
		}
		c.stats.Hits++
		return true
	}
	s := int(line & c.indexMask)
	base := s * c.ways
	want := line>>c.setBits<<2 | validBit | dirtyBit
	for w, k := range c.keys[base : base+c.ways] {
		if k|dirtyBit == want {
			if write {
				c.keys[base+w] = want
			}
			if o := c.orders[s]; o&15 != order(w) {
				c.orders[s] = o.touch(w)
			}
			c.lastLine, c.last = line, base+w
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Allocate installs addr's line (after a miss fill), evicting the LRU
// victim if the set is full. dirty marks the new line dirty immediately
// (write-allocate store miss). The displaced line, if any, is returned so
// the caller can model its writeback.
func (c *Cache) Allocate(addr uint64, dirty bool) Victim {
	line := addr >> c.offsetBits
	s := int(line & c.indexMask)
	o := c.orders[s]
	w := int(o>>c.lruShift) & 15
	i := s*c.ways + w
	var victim Victim
	if k := c.keys[i]; k != 0 {
		victim = Victim{Valid: true, Dirty: k&dirtyBit != 0, Addr: c.addrOf(s, k>>2)}
		c.stats.Evictions++
		c.stats.DirtyEvictions += k & dirtyBit
	}
	key := line>>c.setBits<<2 | validBit
	if dirty {
		key |= dirtyBit
	}
	c.keys[i] = key
	c.orders[s] = o<<4&c.orderMask | order(w) // the LRU way becomes MRU
	c.lastLine = noLine
	return victim
}

// addrOf reconstructs a line base address from set and tag.
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.offsetBits
}

// Invalidate drops addr's line if present, returning its victim record
// (valid if the line was present) without counting an eviction.
func (c *Cache) Invalidate(addr uint64) Victim {
	i := c.find(addr)
	if i < 0 {
		return Victim{}
	}
	s, w := i/c.ways, i%c.ways
	k := c.keys[i]
	c.keys[i] = 0
	below := 0
	for _, x := range c.keys[s*c.ways : i] {
		if x == 0 {
			below++
		}
	}
	c.orders[s] = c.orders[s].retire(w, c.ways, below)
	c.lastLine = noLine
	return Victim{Valid: true, Dirty: k&dirtyBit != 0, Addr: c.addrOf(s, k>>2)}
}

// MarkClean clears the dirty bit of addr's line if present.
func (c *Cache) MarkClean(addr uint64) {
	if i := c.find(addr); i >= 0 {
		c.keys[i] &^= dirtyBit
	}
}

// DirtyLines calls fn for every valid dirty line's base address (used to
// drain caches at the end of a run so final outputs reach memory).
func (c *Cache) DirtyLines(fn func(addr uint64)) {
	for i, k := range c.keys {
		if k&dirtyBit != 0 {
			fn(c.addrOf(i/c.ways, k>>2))
		}
	}
}

// FlushAll invalidates every line, calling fn for each dirty one first
// (used to model barrier-flush coherence in the multicore system: private
// caches drain at synchronisation points).
func (c *Cache) FlushAll(fn func(addr uint64)) {
	for i, k := range c.keys {
		if k&dirtyBit != 0 && fn != nil {
			fn(c.addrOf(i/c.ways, k>>2))
		}
		c.keys[i] = 0
	}
	c.reset()
}

// Stats returns a copy of the statistics counters.
func (c *Cache) Stats() Stats { return c.stats }
