package cmt

import "testing"

// BenchmarkCMTLookup measures the hot Lookup path against the slab
// backing: two shifts and a pointer index per probe, plus the CMT-cache
// LRU touch. CI-gated at 0 allocs/op (scripts/bench.sh). The working set
// (512 pages) fits the on-chip cache, so every touch is a hit — the
// steady state of the LLC demand path.
func BenchmarkCMTLookup(b *testing.B) {
	t := NewTable(1024, 1024)
	const blocks = 2048 // 512 pages — within the 1024-page cache
	for a := uint64(0); a < blocks*1024; a += 1024 {
		t.Lookup(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := t.Lookup(uint64(i&(blocks-1)) << 10)
		if e == nil {
			b.Fatal("nil entry")
		}
	}
}

// BenchmarkCMTLookupMiss measures the cache-miss path: a sweep over more
// pages than the on-chip cache holds, so every touch evicts and refills.
// Steady-state allocation-free thanks to the node free list.
func BenchmarkCMTLookupMiss(b *testing.B) {
	t := NewTable(1024, 64)
	const blocks = 16384 // 4096 pages against a 64-page cache
	for a := uint64(0); a < blocks*1024; a += 1024 {
		t.Lookup(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride by one page per probe so consecutive probes miss.
		t.Lookup(uint64(i*4&(blocks-1)) << 10)
	}
}
