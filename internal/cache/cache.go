// Package cache implements a generic set-associative write-back,
// write-allocate cache model with true-LRU replacement. It provides the
// L1 and L2 private caches of the simulated CMP (Table 1 of the paper)
// and the data store of the baseline LLC designs.
//
// The model tracks tags and state only; functional data lives in the
// simulated address space (see internal/mem). The hot path (Access on a
// hit) is allocation-free.
//
// State is kept as parallel per-way arrays. keys holds one word per way,
// tag<<1|1 for a valid line and 0 for an invalid one, so a lookup is one
// compare per way. stamps holds the LRU stamp per way and is 0 exactly
// when the way is invalid (the clock is bumped before every stamp), so
// the first way holding the set's minimum stamp is the first invalid
// way, or the LRU line when the set is full. cache_test.go keeps a
// line-struct reference model (explicit valid bit, "first invalid way,
// else LRU") that the differential tests hold this one to.
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

// Cache is a set-associative cache. It is not safe for concurrent use.
type Cache struct {
	lineBytes  int
	sets       int
	ways       int
	offsetBits uint
	setBits    uint // log2(sets)
	tagShift   uint // offsetBits + setBits
	wayBits    uint // log2(ways) rounded up: a way number fits below a shifted stamp
	indexMask  uint64
	keys       []uint64 // sets × ways, row-major: tag<<1|1, 0 when invalid
	stamps     []uint64 // LRU stamp per way, 0 when invalid
	dirty      []bool
	clock      uint64
	stats      Stats
}

// New creates a cache of capacityBytes organised as ways-associative sets
// of lineBytes lines. Capacity, ways and line size must yield a
// power-of-two number of sets.
func New(capacityBytes, ways, lineBytes int) *Cache {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	sets := capacityBytes / (ways * lineBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", sets))
	}
	if lineBytes&(lineBytes-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	ob := uint(0)
	for 1<<ob < lineBytes {
		ob++
	}
	sb := uint(setsBits(sets))
	if ob+sb == 0 {
		// A full 64-bit tag leaves no bit for the key's valid flag.
		panic("cache: one set of one-byte lines")
	}
	return &Cache{
		lineBytes:  lineBytes,
		sets:       sets,
		ways:       ways,
		offsetBits: ob,
		setBits:    sb,
		tagShift:   ob + sb,
		wayBits:    uint(setsBits(ways)),
		indexMask:  uint64(sets - 1),
		keys:       make([]uint64, sets*ways),
		stamps:     make([]uint64, sets*ways),
		dirty:      make([]bool, sets*ways),
	}
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

// setsBits returns log2(n) rounded up, the bits of a set (or way)
// number; called at New, never per access.
func setsBits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// find returns the index of addr's line, or -1 when it is absent.
func (c *Cache) find(addr uint64) int {
	base := c.set(addr) * c.ways
	key := c.tag(addr)<<1 | 1
	for w, k := range c.keys[base : base+c.ways] {
		if k == key {
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
	i := c.find(addr)
	if i < 0 {
		c.stats.Misses++
		return false
	}
	c.clock++
	c.stamps[i] = c.clock
	if write {
		c.dirty[i] = true
	}
	c.stats.Hits++
	return true
}

// Allocate installs addr's line (after a miss fill), evicting the LRU
// victim if the set is full. dirty marks the new line dirty immediately
// (write-allocate store miss). The displaced line, if any, is returned so
// the caller can model its writeback.
func (c *Cache) Allocate(addr uint64, dirty bool) Victim {
	s := c.set(addr)
	base := s * c.ways
	// The victim, the first way with the lowest stamp, is the minimum of
	// stamp<<b | way. The minimum is taken without a branch, since a
	// compare-and-branch on stamps mispredicts on most fills (and Go
	// compiles min of a loop-carried value to one): both operands are
	// below 1<<63, so the sign of their difference selects.
	b := c.wayBits
	least := uint64(1)<<63 - 1
	for w, st := range c.stamps[base : base+c.ways] {
		d := (st<<b | uint64(w)) - least
		least += d & uint64(int64(d)>>63)
	}
	oldest := least >> b
	i := base + int(least&(1<<b-1))
	var victim Victim
	if oldest != 0 {
		victim = Victim{Valid: true, Dirty: c.dirty[i], Addr: c.addrOf(s, c.keys[i]>>1)}
		c.stats.Evictions++
		if c.dirty[i] {
			c.stats.DirtyEvictions++
		}
	}
	c.clock++
	c.keys[i] = c.tag(addr)<<1 | 1
	c.stamps[i] = c.clock
	c.dirty[i] = dirty
	return victim
}

// addrOf reconstructs a line base address from set and tag.
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.offsetBits
}

// drop invalidates way i.
func (c *Cache) drop(i int) {
	c.keys[i], c.stamps[i], c.dirty[i] = 0, 0, false
}

// Invalidate drops addr's line if present, returning its victim record
// (valid if the line was present) without counting an eviction.
func (c *Cache) Invalidate(addr uint64) Victim {
	i := c.find(addr)
	if i < 0 {
		return Victim{}
	}
	v := Victim{Valid: true, Dirty: c.dirty[i], Addr: c.addrOf(i/c.ways, c.keys[i]>>1)}
	c.drop(i)
	return v
}

// MarkClean clears the dirty bit of addr's line if present.
func (c *Cache) MarkClean(addr uint64) {
	if i := c.find(addr); i >= 0 {
		c.dirty[i] = false
	}
}

// DirtyLines calls fn for every valid dirty line's base address (used to
// drain caches at the end of a run so final outputs reach memory).
func (c *Cache) DirtyLines(fn func(addr uint64)) {
	for i, d := range c.dirty {
		if d {
			fn(c.addrOf(i/c.ways, c.keys[i]>>1))
		}
	}
}

// FlushAll invalidates every line, calling fn for each dirty one first
// (used to model barrier-flush coherence in the multicore system: private
// caches drain at synchronisation points).
func (c *Cache) FlushAll(fn func(addr uint64)) {
	for i, k := range c.keys {
		if k == 0 {
			continue
		}
		if c.dirty[i] && fn != nil {
			fn(c.addrOf(i/c.ways, k>>1))
		}
		c.drop(i)
	}
}

// Stats returns a copy of the statistics counters.
func (c *Cache) Stats() Stats { return c.stats }
