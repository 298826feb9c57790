// Package cache implements a generic set-associative write-back,
// write-allocate cache model with true-LRU replacement. It provides the
// L1 and L2 private caches of the simulated CMP (Table 1 of the paper)
// and the data store of the baseline LLC designs.
//
// The model tracks tags and state only; functional data lives in the
// simulated address space (see internal/mem). The hot path (Access on a
// hit) is allocation-free.
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

type line struct {
	tag   uint64
	stamp uint64
	valid bool
	dirty bool
}

// Cache is a set-associative cache. It is not safe for concurrent use.
type Cache struct {
	lineBytes  int
	sets       int
	ways       int
	offsetBits uint
	setBits    uint // log2(sets)
	tagShift   uint // offsetBits + setBits
	indexMask  uint64
	lines      []line // sets × ways, row-major
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
	return &Cache{
		lineBytes:  lineBytes,
		sets:       sets,
		ways:       ways,
		offsetBits: ob,
		setBits:    sb,
		tagShift:   ob + sb,
		indexMask:  uint64(sets - 1),
		lines:      make([]line, sets*ways),
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

// setsBits returns log2(sets); called once at New, never per access.
func setsBits(sets int) int {
	b := 0
	for 1<<b < sets {
		b++
	}
	return b
}

// Access performs a load (write=false) or store (write=true) lookup. It
// returns whether the access hit. The caller handles miss fills via
// Allocate; Access does not allocate.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.stats.Accesses++
	s, t := c.set(addr), c.tag(addr)
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == t {
			c.clock++
			l.stamp = c.clock
			if write {
				l.dirty = true
			}
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
	s, t := c.set(addr), c.tag(addr)
	base := s * c.ways
	victimWay, oldest := -1, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victimWay = w
			oldest = 0
			break
		}
		if l.stamp < oldest {
			oldest = l.stamp
			victimWay = w
		}
	}
	l := &c.lines[base+victimWay]
	var v Victim
	if l.valid {
		v = Victim{Valid: true, Dirty: l.dirty, Addr: c.addrOf(s, l.tag)}
		c.stats.Evictions++
		if l.dirty {
			c.stats.DirtyEvictions++
		}
	}
	c.clock++
	*l = line{tag: t, stamp: c.clock, valid: true, dirty: dirty}
	return v
}

// addrOf reconstructs a line base address from set and tag.
func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.offsetBits
}

// Invalidate drops addr's line if present, returning its victim record
// (valid if the line was present) without counting an eviction.
func (c *Cache) Invalidate(addr uint64) Victim {
	s, t := c.set(addr), c.tag(addr)
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == t {
			v := Victim{Valid: true, Dirty: l.dirty, Addr: c.addrOf(s, l.tag)}
			l.valid = false
			l.dirty = false
			return v
		}
	}
	return Victim{}
}

// MarkClean clears the dirty bit of addr's line if present.
func (c *Cache) MarkClean(addr uint64) {
	s, t := c.set(addr), c.tag(addr)
	base := s * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == t {
			l.dirty = false
			return
		}
	}
}

// DirtyLines calls fn for every valid dirty line's base address (used to
// drain caches at the end of a run so final outputs reach memory).
func (c *Cache) DirtyLines(fn func(addr uint64)) {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			l := &c.lines[s*c.ways+w]
			if l.valid && l.dirty {
				fn(c.addrOf(s, l.tag))
			}
		}
	}
}

// FlushAll invalidates every line, calling fn for each dirty one first
// (used to model barrier-flush coherence in the multicore system: private
// caches drain at synchronisation points).
func (c *Cache) FlushAll(fn func(addr uint64)) {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			l := &c.lines[s*c.ways+w]
			if !l.valid {
				continue
			}
			if l.dirty && fn != nil {
				fn(c.addrOf(s, l.tag))
			}
			l.valid = false
			l.dirty = false
		}
	}
}

// Stats returns a copy of the statistics counters.
func (c *Cache) Stats() Stats { return c.stats }
