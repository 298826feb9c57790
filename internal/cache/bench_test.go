package cache

import (
	"fmt"
	"testing"
)

// Hot-path benchmarks, CI-gated at 0 allocs/op (scripts/bench.sh):
// every demand access in the simulator funnels through these paths.

// BenchmarkCacheAccess measures the hit path: set/tag computation plus a
// way scan, on a warm working set that exactly fills the cache. It
// cycles through each set's lines, so every access hits the LRU way:
// the worst case for a move-to-front order, which no workload in the
// simulator's matrix produces (BenchmarkCacheHit has the ones they do).
func BenchmarkCacheAccess(b *testing.B) {
	c := New(64<<10, 8, 64)
	const lines = 1024 // 64 kB / 64 B — fits the cache exactly
	for a := uint64(0); a < lines*64; a += 64 {
		if !c.Access(a, false) {
			c.Allocate(a, false)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i&(lines-1))<<6, i&7 == 0)
	}
}

// BenchmarkCacheFill measures the miss path: a streaming sweep where
// every access misses, allocates, and evicts an LRU victim.
func BenchmarkCacheFill(b *testing.B) { benchFill(b, New(64<<10, 8, 64)) }

// benchFill sweeps c with accesses that all miss and fill, evicting the
// set's LRU line, dirty on every other access.
func benchFill(b *testing.B, c *Cache) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i) << 6
		if !c.Access(a, i&1 == 0) {
			c.Allocate(a, i&1 == 0)
		}
	}
}

// benchSets is the set count of the per-position benchmarks' caches.
const benchSets = 64

// benchLine is the address of line n of set s in a benchSets-set cache
// of 64 B lines.
func benchLine(s, n int) uint64 { return uint64(n*benchSets+s) << 6 }

// BenchmarkCacheHit measures a hit at each recency position the
// simulator's workloads produce, at 4, 8 and 16 ways, on full sets.
// Consecutive accesses never repeat a line, so none is served by the
// last-hit memo: each scans the set's ways.
//
//	mru     each set's most recent line, one set after another (a line
//	        read again after another set's access)
//	second  two lines of a set in turn (two streams sharing a set; most
//	        of heat's L1 hits)
//	lru     every line of a set in turn (BenchmarkCacheAccess's pattern)
func BenchmarkCacheHit(b *testing.B) {
	for _, pos := range []string{"mru", "second", "lru"} {
		for _, ways := range []int{4, 8, 16} {
			b.Run(fmt.Sprintf("%s/ways%d", pos, ways), func(b *testing.B) {
				c := New(benchSets*ways*64, ways, 64)
				for n := 0; n < ways; n++ {
					for s := 0; s < benchSets; s++ {
						c.Allocate(benchLine(s, n), false)
					}
				}
				addr := func(i int) uint64 { return benchLine(i%benchSets, ways-1) }
				switch pos {
				case "second":
					addr = func(i int) uint64 { return benchLine(i/2%benchSets, ways-1-i%2) }
				case "lru":
					addr = func(i int) uint64 { return benchLine(i%benchSets, i/benchSets%ways) }
				}
				const n = 1 << 12 // a multiple of every cycle above
				addrs := make([]uint64, n)
				for i := range addrs {
					addrs[i] = addr(i)
				}
				for _, a := range addrs { // settle the order the cycle keeps
					c.Access(a, false)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !c.Access(addrs[i&(n-1)], i&7 == 0) {
						b.Fatal("miss")
					}
				}
			})
		}
	}
}

// BenchmarkCacheMissFill is BenchmarkCacheFill at 4, 8 and 16 ways.
func BenchmarkCacheMissFill(b *testing.B) {
	for _, ways := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("ways%d", ways), func(b *testing.B) {
			benchFill(b, New(benchSets*ways*64, ways, 64))
		})
	}
}
