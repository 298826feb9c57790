// Allocation regression tests for the store hot paths. The race
// detector instruments allocation and defeats the counts, so these run
// only in the plain suite; scripts/bench.sh enforces the same bar on
// the benchmarks.

//go:build !race

package store

import (
	"sync"
	"testing"

	"avr/internal/vec"
)

// TestStorePutAllocFree pins the zero-allocation put contract for both
// widths: after the pooled scratch is warm, an overwrite put — encode,
// frame, CRC, write — performs no heap allocation. Segment rolls are
// rare and amortized; the run counts here stay well inside one segment.
func TestStorePutAllocFree(t *testing.T) {
	s := openTest(t, Config{})
	v32 := genF32(t, "heat", 4*BlockValues, 42)
	v64 := genF64(t, "wave", 2*BlockValues, 42)
	if _, err := s.Put32("k32", v32); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put64("k64", v64); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := s.Put32("k32", v32); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("Put32 allocates %v per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := s.Put64("k64", v64); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("Put64 allocates %v per op, want 0", avg)
	}
	// The encoded put shares the contract — a container with a lossless
	// block too, whose check decodes into pooled scratch — and so does
	// the encoder writing into a retained buffer.
	mixed := genVec(t, "mixed", 32, 4*BlockValues, 42)
	enc := NewEncoder(s.T1())
	container, err := enc.AppendPut(nil, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutEncoded("enc", container, nil); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := s.PutEncoded("enc", container, nil); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("PutEncoded allocates %v per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if container, err = enc.AppendPut(container[:0], mixed); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("Encoder.AppendPut allocates %v per op, want 0", avg)
	}
}

// TestStoreGetIntoAllocFree pins the read-path analog: Get32IntoCached and
// Get64IntoCached with a reused destination allocate nothing once warm.
func TestStoreGetIntoAllocFree(t *testing.T) {
	s := openTest(t, Config{})
	v32 := genF32(t, "heat", 4*BlockValues, 42)
	v64 := genF64(t, "wave", 2*BlockValues, 42)
	if _, err := s.Put32("k32", v32); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put64("k64", v64); err != nil {
		t.Fatal(err)
	}
	d32 := make([]float32, 0, len(v32))
	d64 := make([]float64, 0, len(v64))
	if avg := testing.AllocsPerRun(50, func() {
		out, _, err := s.Get32IntoCached(d32, "k32", nil)
		if err != nil {
			t.Fatal(err)
		}
		d32 = out[:0]
	}); avg > 0 {
		t.Errorf("Get32IntoCached allocates %v per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() {
		out, _, err := s.Get64IntoCached(d64, "k64", nil)
		if err != nil {
			t.Fatal(err)
		}
		d64 = out[:0]
	}); avg > 0 {
		t.Errorf("Get64IntoCached allocates %v per op, want 0", avg)
	}
	// The encoded read into a retained buffer shares the contract, and so
	// does the decode of its container into a retained vector.
	var c []byte
	var v vec.Vec
	if avg := testing.AllocsPerRun(50, func() {
		var err error
		if c, _, _, err = s.GetEncoded(c[:0], "k32", nil); err != nil {
			t.Fatal(err)
		}
		if v, err = DecodeContainer(v, c); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("GetEncoded + DecodeContainer allocate %v per op, want 0", avg)
	}
}

// TestCacheRefusedLineIsNotBuilt: a key whose line can never fit (64 KiB
// of lossless fp32 values against a 1 MiB cache's 64 KiB shards) is
// served by its miss all the same, with the values of the uncached read,
// and no line of it is started: its lossless blocks are decoded once,
// into the answer. With cold scratch a miss allocates exactly what the
// uncached read of the key does — a second decode, into a line, would
// grow the line's slabs — and with warm scratch nothing.
func TestCacheRefusedLineIsNotBuilt(t *testing.T) {
	s := openTest(t, Config{CacheBytes: 1 << 20})
	vals := genF32(t, "normal", 4*BlockValues, 8)
	if res, err := s.Put32("noise", vals); err != nil || res.LosslessBlocks != res.Blocks {
		t.Fatalf("seeding: %d of %d blocks lossless, err %v", res.LosslessBlocks, res.Blocks, err)
	}
	want, err := get32(s, "noise")
	if err != nil {
		t.Fatal(err)
	}
	if b, max := s.index["noise"].lineBound("noise"), s.cache.MaxEntryBytes(); b <= max {
		t.Fatalf("a line bound of %d bytes fits the cache's %d-byte limit: the test needs a larger key", b, max)
	}
	dst := make([]float32, 0, len(vals))
	miss := func() {
		out, src, err := s.Get32IntoCached(dst, "noise", nil)
		if err != nil {
			t.Fatal(err)
		}
		if src != CacheMiss {
			t.Fatalf("served as %q, want miss", src)
		}
		if !equalBits32(out, want) {
			t.Fatal("the miss read other values than the uncached read")
		}
		dst = out[:0]
	}
	miss()
	if s.cache.Contains("noise") {
		t.Fatal("a line over the admission limit went resident")
	}
	if avg := testing.AllocsPerRun(20, miss); avg > 0 {
		t.Errorf("a miss whose line the cache refuses allocates %v per op, want 0", avg)
	}
	cold := func(useCache bool) float64 {
		newScratch := s.gets.New
		return testing.AllocsPerRun(20, func() {
			s.gets = sync.Pool{New: newScratch}
			if _, _, err := s.GetVec(vec.Of32(dst), "noise", useCache, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if cached, uncached := cold(true), cold(false); cached != uncached {
		t.Errorf("with cold scratch a refused miss allocates %v per op, the uncached read %v: a line was filed", cached, uncached)
	}
	s.mu.RLock()
	ln, err := s.buildLineLocked("noise", s.index["noise"])
	s.mu.RUnlock()
	if ln != nil || err != nil {
		t.Errorf("prefetch build of a refused line = %v, %v; want nil, nil", ln, err)
	}
}
