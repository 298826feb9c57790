package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	c := New(64*1024, 4, 64) // 64kB 4-way: 256 sets
	if c.Sets() != 256 || c.Ways() != 4 || c.LineBytes() != 64 {
		t.Errorf("geometry = %d sets %d ways %d B", c.Sets(), c.Ways(), c.LineBytes())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4, 64) },
		func() { New(100*1000, 4, 64) }, // non-pow2 sets
		func() { New(64*1024, 4, 60) },  // non-pow2 line
		func() { New(64*1024, 32, 64) }, // more ways than an order ranks
		func() { New(1024, 2, 2) },      // no room for a key's flags
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(1024, 2, 64)
	if c.Access(0x100, false) {
		t.Fatal("cold access must miss")
	}
	c.Allocate(0x100, false)
	if !c.Access(0x100, false) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x13F, false) {
		t.Fatal("same-line access must hit")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(2*64, 2, 64) // 1 set, 2 ways
	c.Allocate(0x000, false)
	c.Allocate(0x040, false)
	c.Access(0x000, false) // 0x000 is MRU
	v := c.Allocate(0x080, false)
	if !v.Valid || v.Addr != 0x040 {
		t.Errorf("victim = %+v, want LRU line 0x040", v)
	}
	if !c.Probe(0x000) || c.Probe(0x040) || !c.Probe(0x080) {
		t.Error("wrong lines present after replacement")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := New(64, 1, 64) // direct-mapped single set
	c.Allocate(0x000, false)
	c.Access(0x000, true) // dirty it
	v := c.Allocate(0x040, false)
	if !v.Valid || !v.Dirty || v.Addr != 0x000 {
		t.Errorf("victim = %+v, want dirty 0x000", v)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Error("dirty eviction not counted")
	}
}

func TestWriteAllocateDirty(t *testing.T) {
	c := New(64, 1, 64)
	c.Allocate(0x000, true)
	v := c.Allocate(0x040, false)
	if !v.Dirty {
		t.Error("write-allocated line must be dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1024, 2, 64)
	c.Allocate(0x100, true)
	v := c.Invalidate(0x100)
	if !v.Valid || !v.Dirty || v.Addr != 0x100 {
		t.Errorf("invalidate victim = %+v", v)
	}
	if c.Probe(0x100) {
		t.Error("line still present after invalidate")
	}
	if v := c.Invalidate(0x100); v.Valid {
		t.Error("double invalidate returned a victim")
	}
}

func TestMarkClean(t *testing.T) {
	c := New(64, 1, 64)
	c.Allocate(0x000, true)
	c.MarkClean(0x000)
	v := c.Allocate(0x040, false)
	if v.Dirty {
		t.Error("cleaned line evicted dirty")
	}
}

func TestDirtyLines(t *testing.T) {
	c := New(1024, 2, 64)
	c.Allocate(0x000, true)
	c.Allocate(0x040, false)
	c.Allocate(0x080, true)
	var got []uint64
	c.DirtyLines(func(a uint64) { got = append(got, a) })
	if len(got) != 2 {
		t.Fatalf("dirty lines = %v, want 2 entries", got)
	}
}

func TestAddrReconstruction(t *testing.T) {
	// Victim addresses must be exact line base addresses.
	c := New(4*1024, 4, 64)
	addrs := []uint64{0x0, 0x12340, 0xFFFC0, 0xABCDE00}
	for _, a := range addrs {
		c.Allocate(a, false)
	}
	for _, a := range addrs {
		v := c.Invalidate(a)
		if !v.Valid || v.Addr != c.LineAddr(a) {
			t.Errorf("addr %#x reconstructed as %#x", a, v.Addr)
		}
	}
}

func TestLineAddr(t *testing.T) {
	c := New(1024, 2, 64)
	if c.LineAddr(0x13F) != 0x100 {
		t.Errorf("LineAddr(0x13F) = %#x", c.LineAddr(0x13F))
	}
}

func TestCapacityProperty(t *testing.T) {
	// Property: after allocating K distinct lines into a cache of K
	// lines with a perfectly conflict-free stride, all of them hit.
	c := New(8*1024, 4, 64) // 128 lines
	for i := uint64(0); i < 128; i++ {
		c.Allocate(i*64, false)
	}
	for i := uint64(0); i < 128; i++ {
		if !c.Access(i*64, false) {
			t.Fatalf("line %d evicted prematurely", i)
		}
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := New(2*64, 2, 64)
	c.Allocate(0x000, false)
	c.Allocate(0x040, false)
	before := c.Stats()
	c.Probe(0x000)
	c.Probe(0x999)
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
	// LRU untouched: 0x000 is still LRU, so it is the victim.
	v := c.Allocate(0x080, false)
	if v.Addr != 0x000 {
		t.Errorf("probe disturbed LRU: victim %#x", v.Addr)
	}
}

func TestHitMissAccountingProperty(t *testing.T) {
	f := func(seq []uint16) bool {
		c := New(1024, 2, 64)
		for _, a := range seq {
			addr := uint64(a)
			if !c.Access(addr, a%2 == 0) {
				c.Allocate(addr, a%2 == 0)
			}
		}
		s := c.Stats()
		return s.Accesses == s.Hits+s.Misses && s.Accesses == uint64(len(seq))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEvictionConservationProperty(t *testing.T) {
	// Property: valid lines never exceed capacity, and evictions =
	// allocations - final valid lines.
	f := func(seq []uint32) bool {
		c := New(512, 2, 64) // 8 lines
		allocs := 0
		for _, a := range seq {
			addr := uint64(a) &^ 63
			if !c.Access(addr, false) {
				c.Allocate(addr, false)
				allocs++
			}
		}
		return c.Stats().Evictions <= uint64(allocs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlushAll(t *testing.T) {
	c := New(1024, 2, 64)
	c.Allocate(0x000, true)
	c.Allocate(0x040, false)
	c.Allocate(0x080, true)
	var dirty []uint64
	c.FlushAll(func(a uint64) { dirty = append(dirty, a) })
	if len(dirty) != 2 {
		t.Fatalf("flushed %d dirty lines, want 2", len(dirty))
	}
	for _, a := range []uint64{0x000, 0x040, 0x080} {
		if c.Probe(a) {
			t.Errorf("line %#x survived FlushAll", a)
		}
	}
	// Nil callback must not panic even with dirty lines.
	c.Allocate(0x100, true)
	c.FlushAll(nil)
}

// TestAddrOfTagRoundTrip property-tests the address plumbing across
// randomized geometries: reconstructing a line address from its set and
// tag must return the original line address, so the precomputed-shift
// fast path can't silently corrupt victim addresses.
func TestAddrOfTagRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 64; trial++ {
		lineBytes := 16 << rng.Intn(4)  // 16..128 B
		ways := 1 + rng.Intn(8)         // 1..8
		sets := 1 << (1 + rng.Intn(10)) // 2..1024
		c := New(sets*ways*lineBytes, ways, lineBytes)
		if c.Sets() != sets {
			t.Fatalf("geometry: got %d sets, want %d", c.Sets(), sets)
		}
		prop := func(addr uint64) bool {
			return c.addrOf(c.set(addr), c.tag(addr)) == c.LineAddr(addr)
		}
		if err := quick.Check(prop, &quick.Config{
			MaxCount: 500,
			Rand:     rng,
		}); err != nil {
			t.Errorf("geometry %dB/%dway/%dset: %v", lineBytes, ways, sets, err)
		}
	}
}

// TestVictimAddrRoundTrip drives the same invariant through the public
// API: every victim address reported by Allocate must map back to the
// set it was evicted from.
func TestVictimAddrRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 16; trial++ {
		lineBytes := 32 << rng.Intn(2)
		ways := 1 + rng.Intn(4)
		sets := 1 << (1 + rng.Intn(8))
		c := New(sets*ways*lineBytes, ways, lineBytes)
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64() >> uint(rng.Intn(32))
			v := c.Allocate(addr, i&1 == 0)
			if v.Valid {
				if c.LineAddr(v.Addr) != v.Addr {
					t.Fatalf("victim %#x not line-aligned", v.Addr)
				}
				if c.set(v.Addr) != c.set(addr) {
					t.Fatalf("victim %#x from set %d, allocation went to set %d",
						v.Addr, c.set(v.Addr), c.set(addr))
				}
			}
		}
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// LineAddr returns the line base address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.lineBytes) - 1)
}

// Probe reports whether addr's line is present without updating LRU or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	return c.find(addr) >= 0
}

// refCache is the line-struct model Cache replaced, kept as the oracle
// of TestCacheMatchesOracle and FuzzCacheOracle: one struct per way,
// an explicit valid bit, "first invalid way, else the LRU line" as the
// victim rule.
type refCache struct {
	sets, ways          int
	offsetBits, setBits uint
	tagShift            uint
	indexMask           uint64
	lines               []refLine
	clock               uint64
	stats               Stats
}

type refLine struct {
	tag   uint64
	stamp uint64
	valid bool
	dirty bool
}

func newRefCache(capacityBytes, ways, lineBytes int) *refCache {
	sets := capacityBytes / (ways * lineBytes)
	ob, sb := uint(setsBits(lineBytes)), uint(setsBits(sets))
	return &refCache{
		sets: sets, ways: ways, offsetBits: ob, setBits: sb, tagShift: ob + sb,
		indexMask: uint64(sets - 1), lines: make([]refLine, sets*ways),
	}
}

func (c *refCache) set(addr uint64) int { return int((addr >> c.offsetBits) & c.indexMask) }

func (c *refCache) addrOf(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) << c.offsetBits
}

func (c *refCache) Access(addr uint64, write bool) bool {
	c.stats.Accesses++
	s, t := c.set(addr), addr>>c.tagShift
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
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

func (c *refCache) Allocate(addr uint64, dirty bool) Victim {
	s, t := c.set(addr), addr>>c.tagShift
	victimWay, oldest := -1, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
		if !l.valid {
			victimWay = w
			break
		}
		if l.stamp < oldest {
			oldest = l.stamp
			victimWay = w
		}
	}
	l := &c.lines[s*c.ways+victimWay]
	var v Victim
	if l.valid {
		v = Victim{Valid: true, Dirty: l.dirty, Addr: c.addrOf(s, l.tag)}
		c.stats.Evictions++
		if l.dirty {
			c.stats.DirtyEvictions++
		}
	}
	c.clock++
	*l = refLine{tag: t, stamp: c.clock, valid: true, dirty: dirty}
	return v
}

func (c *refCache) Invalidate(addr uint64) Victim {
	s, t := c.set(addr), addr>>c.tagShift
	for w := 0; w < c.ways; w++ {
		l := &c.lines[s*c.ways+w]
		if l.valid && l.tag == t {
			v := Victim{Valid: true, Dirty: l.dirty, Addr: c.addrOf(s, l.tag)}
			l.valid, l.dirty = false, false
			return v
		}
	}
	return Victim{}
}

func (c *refCache) MarkClean(addr uint64) {
	s, t := c.set(addr), addr>>c.tagShift
	for w := 0; w < c.ways; w++ {
		if l := &c.lines[s*c.ways+w]; l.valid && l.tag == t {
			l.dirty = false
			return
		}
	}
}

func (c *refCache) DirtyLines(fn func(addr uint64)) {
	for i, l := range c.lines {
		if l.valid && l.dirty {
			fn(c.addrOf(i/c.ways, l.tag))
		}
	}
}

func (c *refCache) FlushAll(fn func(addr uint64)) {
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if l.dirty && fn != nil {
			fn(c.addrOf(i/c.ways, l.tag))
		}
		l.valid, l.dirty = false, false
	}
}

// oracleGeometry is the differential tests' cache: 8 sets of 64 B lines
// at the given associativity, small enough that a 256-line address pool
// both hits and conflicts.
func oracleGeometry(ways int) (capacity, lineBytes int) { return 8 * ways * 64, 64 }

// runOracle drives a Cache and the reference model through the same op
// stream — three bytes an op: an opcode and a 16-bit operand whose high
// byte picks one of 256 lines and whose low byte an offset in it — and
// fails on the first hit, victim, dirty-line list or Stats that differs.
func runOracle(t *testing.T, ways int, ops []byte) {
	t.Helper()
	capacity, lineBytes := oracleGeometry(ways)
	got, want := New(capacity, ways, lineBytes), newRefCache(capacity, ways, lineBytes)
	var gotLines, wantLines []uint64
	collect := func(dst *[]uint64) func(uint64) {
		*dst = (*dst)[:0]
		return func(a uint64) { *dst = append(*dst, a) }
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op := ops[i]
		addr := uint64(ops[i+1])<<6 | uint64(ops[i+2]&63)
		flag := op&0x80 != 0
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5:
			if g, w := got.Access(addr, flag), want.Access(addr, flag); g != w {
				t.Fatalf("op %d: Access(%#x, %v) hit %v, oracle %v", i/3, addr, flag, g, w)
			}
		case 6, 7, 8, 9:
			if g, w := got.Allocate(addr, flag), want.Allocate(addr, flag); g != w {
				t.Fatalf("op %d: Allocate(%#x, %v) victim %+v, oracle %+v", i/3, addr, flag, g, w)
			}
		case 10, 11:
			if g, w := got.Invalidate(addr), want.Invalidate(addr); g != w {
				t.Fatalf("op %d: Invalidate(%#x) %+v, oracle %+v", i/3, addr, g, w)
			}
		case 12, 13:
			got.MarkClean(addr)
			want.MarkClean(addr)
		case 14:
			got.DirtyLines(collect(&gotLines))
			want.DirtyLines(collect(&wantLines))
			if !slices.Equal(gotLines, wantLines) {
				t.Fatalf("op %d: DirtyLines %#x, oracle %#x", i/3, gotLines, wantLines)
			}
		case 15:
			if !flag {
				got.FlushAll(nil)
				want.FlushAll(nil)
				break
			}
			got.FlushAll(collect(&gotLines))
			want.FlushAll(collect(&wantLines))
			if !slices.Equal(gotLines, wantLines) {
				t.Fatalf("op %d: FlushAll wrote back %#x, oracle %#x", i/3, gotLines, wantLines)
			}
		}
		if got.Stats() != want.stats {
			t.Fatalf("op %d: stats %+v, oracle %+v", i/3, got.Stats(), want.stats)
		}
	}
	got.DirtyLines(collect(&gotLines))
	want.DirtyLines(collect(&wantLines))
	if !slices.Equal(gotLines, wantLines) {
		t.Fatalf("end: DirtyLines %#x, oracle %#x", gotLines, wantLines)
	}
}

// TestCacheMatchesOracle runs seeded random op streams through the
// cache and the line-struct model it replaced, at 4, 8 and 16 ways.
// The stream is weighted towards the simulator's own pattern (Access,
// and Allocate after a miss) so sets fill and evict constantly.
func TestCacheMatchesOracle(t *testing.T) {
	for _, ways := range []int{4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(ways)))
		ops := make([]byte, 3*200_000)
		rng.Read(ops)
		for i := 0; i < len(ops); i += 3 {
			// DirtyLines and FlushAll one op in a thousand, not one in eight.
			if ops[i]%16 >= 14 && rng.Intn(128) != 0 {
				ops[i] = ops[i]&0x80 | byte(rng.Intn(14))
			}
		}
		t.Run(fmt.Sprintf("ways%d", ways), func(t *testing.T) { runOracle(t, ways, ops) })
	}
}

// FuzzCacheOracle is TestCacheMatchesOracle on fuzzer-chosen streams:
// the first byte picks 4, 8 or 16 ways, the rest is runOracle's ops.
func FuzzCacheOracle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 6, 1, 0, 0x86, 2, 0, 0, 1, 0, 14, 0, 0, 0x8F, 0, 0})
	f.Add([]byte{2, 6, 0, 0, 6, 8, 0, 6, 16, 0, 6, 24, 0, 6, 32, 0, 0x80, 8, 0, 10, 16, 0, 14, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runOracle(t, []int{4, 8, 16}[int(data[0])%3], data[1:])
	})
}

// TestMemoForgetsDroppedLine runs runOracle's op streams that hit a line
// (so the last-hit memo holds it), drop it, and access it again: the
// access must miss, so Invalidate and FlushAll have to clear the memo.
// Random streams rarely put the three ops back to back.
func TestMemoForgetsDroppedLine(t *testing.T) {
	for name, drop := range map[string]byte{"Invalidate": 10, "FlushAll": 15} {
		ops := []byte{
			6, 5, 0, // Allocate line 5
			0, 5, 8, // Access it: a hit, now the memo's line
			drop, 5, 0,
			0, 5, 8, // must miss
			6, 5, 0,
			0x80, 5, 0, // a store hit
			0, 5, 0,
		}
		for _, ways := range []int{4, 8, 16} {
			t.Run(fmt.Sprintf("%s/ways%d", name, ways), func(t *testing.T) { runOracle(t, ways, ops) })
		}
	}
}
