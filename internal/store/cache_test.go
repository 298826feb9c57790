package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"avr/internal/obs"
	"avr/internal/readcache"
	"avr/internal/vec"
	"avr/internal/workloads"
)

// warmCache fills key's summary line synchronously and fails the test if
// it did not become resident (a torn or unreadable key never caches).
func warmCache(t *testing.T, s *Store, key string) {
	t.Helper()
	s.loadCacheLine(key, false)
	if !s.cache.Contains(key) {
		t.Fatalf("warm of %q did not cache a line", key)
	}
}

// TestCacheHitByteIdentical is the tentpole correctness bar: for every
// workload generator the repo ships, at both widths and at awkward
// sizes, a cache-hit reconstruction is byte-identical to the disk
// decode path. The disk reference comes from Get (GetTraced never
// consults the cache); the hit from Get32IntoCached/Get64IntoCached
// after a synchronous warm.
func TestCacheHitByteIdentical(t *testing.T) {
	dists := workloads.Distributions()
	if len(dists) == 0 {
		t.Fatal("no workload distributions registered")
	}
	sizes := []int{17, BlockValues, BlockValues + 1, 3*BlockValues + 511}

	for _, dist := range dists {
		for _, width := range []int{32, 64} {
			t.Run(fmt.Sprintf("%s/fp%d", dist, width), func(t *testing.T) {
				s := openTest(t, Config{SegmentTargetBytes: 1 << 20, CacheBytes: 32 << 20})
				for si, n := range sizes {
					key := fmt.Sprintf("%s-%d", dist, n)
					seed := uint64(si)*1000 + 7
					if width == 32 {
						vals := genF32(t, dist, n, seed)
						if _, err := s.Put32(key, vals); err != nil {
							t.Fatal(err)
						}
						want, _, _, err := s.GetTraced(key, nil)
						if err != nil {
							t.Fatal(err)
						}
						warmCache(t, s, key)
						got, src, err := s.Get32IntoCached(nil, key, nil)
						if err != nil {
							t.Fatal(err)
						}
						if src != CacheHit {
							t.Fatalf("warmed read served as %q, want hit", src)
						}
						if len(got) != len(want) {
							t.Fatalf("hit returned %d values, disk %d", len(got), len(want))
						}
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s[%d]: hit %x disk %x — not byte-identical",
									key, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}
					} else {
						vals := genF64(t, dist, n, seed)
						if _, err := s.Put64(key, vals); err != nil {
							t.Fatal(err)
						}
						_, want, _, err := s.GetTraced(key, nil)
						if err != nil {
							t.Fatal(err)
						}
						warmCache(t, s, key)
						got, src, err := s.Get64IntoCached(nil, key, nil)
						if err != nil {
							t.Fatal(err)
						}
						if src != CacheHit {
							t.Fatalf("warmed read served as %q, want hit", src)
						}
						if len(got) != len(want) {
							t.Fatalf("hit returned %d values, disk %d", len(got), len(want))
						}
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s[%d]: hit %x disk %x — not byte-identical",
									key, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
					}
				}
			})
		}
	}
}

// TestCacheMissFillsInline exercises the production fill path end to
// end, both widths: a cold read reports miss and, by the time it
// returns, has left the key resident — built from the frames it read for
// its own answer, the background fill workers never asked (they serve
// only the prefetcher, which this key stream never arms). The re-read is
// a hit with the same bytes.
func TestCacheMissFillsInline(t *testing.T) {
	s := openTest(t, Config{CacheBytes: 8 << 20})
	// Stand a counter in front of the fill callback.
	var loads atomic.Int64
	s.cache.Close()
	s.cache = readcache.New(readcache.Config{MaxBytes: 8 << 20, Load: func(key string) {
		loads.Add(1)
		s.loadCacheLine(key, true)
	}})
	if _, err := s.Put32("k32", genF32(t, "heat", 2*BlockValues+99, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put64("k64", genF64(t, "wave", BlockValues+33, 4)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"k32", "k64"} {
		cold, src, err := s.GetVec(vec.Vec{}, key, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if src != CacheMiss {
			t.Fatalf("%s: cold read served as %q, want miss", key, src)
		}
		if !s.cache.Contains(key) {
			t.Fatalf("%s: not resident when the missing read returned", key)
		}
		warm, src, err := s.GetVec(vec.Vec{}, key, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if src != CacheHit {
			t.Fatalf("%s: read after the miss served as %q, want hit", key, src)
		}
		if warm.Width != cold.Width || !bytes.Equal(warm.AppendLE(nil), cold.AppendLE(nil)) {
			t.Fatalf("%s: the hit is not byte-identical to the miss that filled it", key)
		}
	}
	// A read that bypasses the cache leaves it alone.
	s.cache.Invalidate("k32")
	if _, _, err := s.GetVec(vec.Vec{}, "k32", false, nil); err != nil {
		t.Fatal(err)
	}
	if s.cache.Contains("k32") {
		t.Fatal("an uncached read filled the cache")
	}
	s.cache.Close() // waits for the workers: a queued fill would have run by now
	if n := loads.Load(); n != 0 {
		t.Fatalf("demand misses went through the fill queue %d times", n)
	}
}

// TestClosedCacheLeavesTheGauges: the occupancy gauges count the lines of
// open caches only. A store that filled its cache and closed gives every
// byte and line back, and a line that arrives after the close is not
// counted — otherwise a process that opens many stores (a test cluster,
// bench's fleets) reports the sum of every cache it ever held.
func TestClosedCacheLeavesTheGauges(t *testing.T) {
	bytes0, lines0 := obs.CacheResidentBytes.Value(), obs.CacheLines.Value()
	s := openTest(t, Config{CacheBytes: 8 << 20})
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := s.Put32(key, genF32(t, "heat", 2*BlockValues, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		warmCache(t, s, key)
	}
	if got := obs.CacheLines.Value() - lines0; got != 3 || obs.CacheResidentBytes.Value()-bytes0 != s.cache.Stats().ResidentBytes {
		t.Fatalf("open cache: gauges moved by %d lines / %d bytes, it holds 3 / %d",
			got, obs.CacheResidentBytes.Value()-bytes0, s.cache.Stats().ResidentBytes)
	}
	cache := s.cache
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cache.Put("late", 1000, nil, false)
	if b, l := obs.CacheResidentBytes.Value(), obs.CacheLines.Value(); b != bytes0 || l != lines0 {
		t.Fatalf("closed cache: gauges read %d bytes / %d lines, %d / %d before it opened", b, l, bytes0, lines0)
	}
}

// TestLineBoundHolds is the property admission rests on: the bound a
// miss is admitted on, computed from the index alone, is never below the
// size of the line the walk then builds — for every workload generator,
// both widths, sizes that end mid-record and mid-block, and a tight t1
// (outlier-heavy records, more lossless blocks) beside the default.
func TestLineBoundHolds(t *testing.T) {
	sizes := []int{17, 300, BlockValues, BlockValues + 1, 3*BlockValues + 511, 4 * BlockValues}
	worst := 0.0
	for _, t1 := range []float64{0, 0.005} {
		s := openTest(t, Config{T1: t1, CacheBytes: 64 << 20})
		for _, dist := range workloads.Distributions() {
			for _, width := range []int{32, 64} {
				for si, n := range sizes {
					key := fmt.Sprintf("%s-%d-%d", dist, width, n)
					if _, err := s.PutVec(key, genVec(t, dist, width, n, uint64(si)+1), nil); err != nil {
						t.Fatal(err)
					}
					s.mu.RLock()
					e := s.index[key]
					bound := e.lineBound(key)
					ln, err := s.buildLineLocked(key, e)
					s.mu.RUnlock()
					if err != nil || ln == nil {
						t.Fatalf("t1 %g %s: line not built (%v)", t1, key, err)
					}
					if size := ln.size(key); size > bound {
						t.Errorf("t1 %g %s: line of %d bytes over its bound %d", t1, key, size, bound)
					} else {
						worst = max(worst, float64(bound)/float64(size))
					}
				}
			}
		}
	}
	t.Logf("loosest bound: %.2fx the line it bounds", worst)
}

// TestAdmissionKeepsFittingCache: with a budget that holds the whole
// working set, no shard ever comes under pressure, so admission admits
// every miss — a seeded stream of cached gets and overwrites is served
// with exactly the hit/miss sequence of the rule it replaced, where
// every miss filled: a get is a hit iff the key was read since its last
// put.
func TestAdmissionKeepsFittingCache(t *testing.T) {
	s := openTest(t, Config{CacheBytes: 32 << 20})
	const keys = 24
	dists := workloads.Distributions()
	put := func(k int, seed uint64) {
		t.Helper()
		width := 32 << (k & 1)
		v := genVec(t, dists[k%len(dists)], width, BlockValues*(1+k%4)-k, seed)
		if _, err := s.PutVec(fmt.Sprintf("k-%02d", k), v, nil); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < keys; k++ {
		put(k, uint64(k))
	}
	resident := make([]bool, keys)
	rng := rand.New(rand.NewSource(30))
	for op := 0; op < 3000; op++ {
		k := rng.Intn(keys)
		if rng.Intn(6) == 0 {
			put(k, uint64(op))
			resident[k] = false
			continue
		}
		_, src, err := s.GetVec(vec.Vec{}, fmt.Sprintf("k-%02d", k), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := CacheMiss
		if resident[k] {
			want = CacheHit
		}
		if src != want {
			t.Fatalf("op %d, key %d: served as %q, every-miss-fills says %q", op, k, src, want)
		}
		resident[k] = true
	}
}

// TestCacheBudgetInvariant: resident bytes never exceed the configured
// budget, whatever mix of keys and sizes gets cached.
func TestCacheBudgetInvariant(t *testing.T) {
	// ~18 KB per lossless "normal" line across 16 shards: a 2 MiB budget
	// admits lines (128 KiB per shard) but cannot hold all 64 keys, so
	// eviction must do real work.
	const budget = 2 << 20
	s := openTest(t, Config{CacheBytes: budget, SegmentTargetBytes: 1 << 20})
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k-%03d", i)
		vals := genF32(t, "normal", BlockValues+i*37, uint64(i))
		if _, err := s.Put32(key, vals); err != nil {
			t.Fatal(err)
		}
		s.loadCacheLine(key, false)
		if got := s.cache.Stats().ResidentBytes; got > budget {
			t.Fatalf("resident %d bytes exceeds budget %d after %d keys", got, budget, i+1)
		}
	}
	if s.cache.Stats().Lines == 0 {
		t.Fatal("nothing stayed resident under the budget")
	}
	snap := s.CacheSnapshot()
	if !snap.Enabled || snap.ResidentBytes != s.cache.Stats().ResidentBytes || snap.BudgetBytes != budget {
		t.Fatalf("snapshot %+v inconsistent with cache state", snap)
	}
}

// TestTornTailCachePrefix is the satellite regression: a torn-tail key
// caches (and serves) only the recovered prefix, never marked complete —
// every cached read of it keeps reporting ErrIncomplete, byte-identical
// to the disk prefix.
func TestTornTailCachePrefix(t *testing.T) {
	fs := newMemFS(1)
	s := openTest(t, Config{Dir: "d", fs: fs})
	fs.hook = cutWrite(tearInFrame(1))
	if _, err := s.Put32("torn", genF32(t, "heat", 3*BlockValues, 9)); !errors.Is(err, errCut) {
		t.Fatalf("put on a dying disk: %v", err)
	}

	s = openTest(t, Config{Dir: "d", fs: fs.crash(processKill, 1), CacheBytes: 8 << 20})
	want, err := get32(s, "torn") // disk path: prefix + ErrIncomplete
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("disk read of torn vector: err %v", err)
	}
	// The miss that fills the line reads the same prefix…
	cold, src, err := s.Get32IntoCached(nil, "torn", nil)
	if !errors.Is(err, ErrIncomplete) || src != CacheMiss || len(cold) != len(want) {
		t.Fatalf("cold cached read of torn vector: %d values, src %q, err %v", len(cold), src, err)
	}
	// …and caches no more than that.
	ent, ok := s.cache.Get("torn")
	if !ok {
		t.Fatal("torn line not resident")
	}
	if ln := ent.Meta.(*cachedLine); ln.complete {
		t.Fatal("torn-tail line cached as complete")
	} else if ln.nvals != BlockValues {
		t.Fatalf("torn line caches %d values, want the %d-value prefix", ln.nvals, BlockValues)
	}
	got, src, err := s.Get32IntoCached(nil, "torn", nil)
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("cached read of torn vector: err %v, want ErrIncomplete", err)
	}
	if src != CacheHit {
		t.Fatalf("warmed torn read served as %q, want hit", src)
	}
	if len(got) != len(want) {
		t.Fatalf("cached prefix %d values, disk prefix %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("torn prefix value %d differs: %x vs %x", i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestCacheInvalidation pins the three write-path invalidation hooks
// directly: overwrite, delete, and the no-stale-serve guarantee after
// each.
func TestCacheInvalidation(t *testing.T) {
	s := openTest(t, Config{CacheBytes: 8 << 20})
	v1 := genF32(t, "heat", BlockValues, 1)
	if _, err := s.Put32("k", v1); err != nil {
		t.Fatal(err)
	}
	warmCache(t, s, "k")
	v2 := genF32(t, "heat", BlockValues, 2)
	if _, err := s.Put32("k", v2); err != nil {
		t.Fatal(err)
	}
	if s.cache.Contains("k") {
		t.Fatal("overwrite left a stale line resident")
	}
	got, src, err := s.Get32IntoCached(nil, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if src != CacheMiss {
		t.Fatalf("read after overwrite served as %q, want miss", src)
	}
	disk, err := get32(s, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(disk[i]) {
			t.Fatalf("post-overwrite value %d differs from disk", i)
		}
	}
	warmCache(t, s, "k")
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.cache.Contains("k") {
		t.Fatal("delete left a stale line resident")
	}
	if _, _, err := s.Get32IntoCached(nil, "k", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete: err %v, want ErrNotFound", err)
	}
}

// TestRecompressionInvalidatesCache: a compaction pass that converts a
// lossless block to AVR changes the on-disk bytes, so the key's resident
// line must drop — a cached read afterwards matches the fresh disk
// decode, not the pre-conversion exact values.
func TestRecompressionInvalidatesCache(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, T1: 1e-7, SegmentTargetBytes: 64 << 10})
	want := make([][]float32, 6)
	for i := range want {
		want[i] = genF32(t, "heat", BlockValues, uint64(i)+1)
		if _, err := s.Put32(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Fragment so compaction has a victim.
	for i := 0; i < 3; i++ {
		want[i] = genF32(t, "heat", BlockValues, uint64(i)+100)
		if _, err := s.Put32(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at the default threshold with the cache on and warm every
	// key, then compact: conversions must invalidate.
	r := openTest(t, Config{Dir: dir, SegmentTargetBytes: 64 << 10, CacheBytes: 8 << 20})
	for i := range want {
		warmCache(t, r, key(i))
	}
	before := snapCounters()
	for {
		_, did, err := r.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	if d := snapCounters().since(before); d.won == 0 {
		t.Fatalf("setup: compaction converted no blocks (delta %+v)", d)
	}
	for i := range want {
		got, _, err := r.Get32IntoCached(nil, key(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := get32(r, key(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if math.Float32bits(got[j]) != math.Float32bits(disk[j]) {
				t.Fatalf("key %d value %d: cached read %x vs disk %x after recompression",
					i, j, math.Float32bits(got[j]), math.Float32bits(disk[j]))
			}
		}
	}
}

// TestCacheWriteReadHammer is the -race proof of the invalidation
// scheme: concurrent overwrites, cached reads and background fills on
// the same keys, with every read required to return an internally
// consistent generation (all values from one put, within bound).
func TestCacheWriteReadHammer(t *testing.T) {
	s := openTest(t, Config{CacheBytes: 4 << 20})
	const keys = 4
	const gens = 50
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Writers: each key cycles through generations of constant vectors;
	// a constant block reconstructs exactly, so any mixed-generation or
	// stale read is loud.
	for k := 0; k < keys; k++ {
		writers.Add(1)
		go func(k int) {
			defer writers.Done()
			vals := make([]float32, 2*BlockValues)
			for g := 1; g <= gens; g++ {
				v := float32(k*1000 + g)
				for i := range vals {
					vals[i] = v
				}
				if _, err := s.Put32(fmt.Sprintf("h-%d", k), vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	// Readers: hammer the cached path until the writers finish.
	for r := 0; r < 2*keys; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var dst []float32
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("h-%d", r%keys)
				got, _, err := s.Get32IntoCached(dst[:0], key, nil)
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // writer has not reached this key yet
					}
					t.Error(err)
					return
				}
				dst = got
				for i := 1; i < len(got); i++ {
					if got[i] != got[0] {
						t.Errorf("%s: mixed generations in one read: [0]=%v [%d]=%v",
							key, got[0], i, got[i])
						return
					}
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// Settled state: every key's cached read equals the last generation.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("h-%d", k)
		got, _, err := s.Get32IntoCached(nil, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := float32(k*1000 + gens)
		for i := range got {
			if got[i] != want {
				t.Fatalf("%s[%d] = %v after hammer, want final generation %v", key, i, got[i], want)
			}
		}
	}
}

// TestGetCachedTracedWidthFlip: an untyped read resolves the key's width
// and reads its value under one acquisition of the read lock, so while a
// writer flips a key between an fp32 and an fp64 vector a reader sees
// one or the other — never ErrWidth (which the serving tier would turn
// into a 409 for a key that held a value at every instant). Run under
// -race in CI.
func TestGetCachedTracedWidthFlip(t *testing.T) {
	v32 := genF32(t, "heat", 2*BlockValues+100, 1)
	v64 := genF64(t, "wave", BlockValues+50, 2)
	for _, cacheBytes := range []int64{0, 4 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			s := openTest(t, Config{CacheBytes: cacheBytes})
			if _, err := s.Put32("flip", v32); err != nil {
				t.Fatal(err)
			}
			var writer, readers sync.WaitGroup
			stop := make(chan struct{})
			writer.Add(1)
			go func() {
				defer writer.Done()
				for i := 0; i < 400; i++ {
					var err error
					if i%2 == 0 {
						_, err = s.Put64("flip", v64)
					} else {
						_, err = s.Put32("flip", v32)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						g32, g64, width, _, err := s.GetCachedTraced("flip", nil)
						if err != nil {
							t.Errorf("read while the key flips width: %v", err)
							return
						}
						switch {
						case width == 32 && g64 == nil && len(g32) == len(v32):
							for i, g := range g32 {
								if !withinT1(float64(g), float64(v32[i]), s.T1()) {
									t.Errorf("fp32[%d] = %v, want %v within t1", i, g, v32[i])
									return
								}
							}
						case width == 64 && g32 == nil && len(g64) == len(v64):
							for i, g := range g64 {
								if !withinT1(g, v64[i], s.T1()) {
									t.Errorf("fp64[%d] = %v, want %v within t1", i, g, v64[i])
									return
								}
							}
						default:
							t.Errorf("width %d with %d fp32 and %d fp64 values matches neither vector",
								width, len(g32), len(g64))
							return
						}
					}
				}()
			}
			writer.Wait()
			close(stop)
			readers.Wait()
		})
	}
}

// TestReadFailureReturnsDst: every read entry point hands a failed
// read's destination back as passed — avrd's mget reuses one scratch
// across the keys of a batch and must not lose it to a missing key.
func TestReadFailureReturnsDst(t *testing.T) {
	for _, cacheBytes := range []int64{0, 4 << 20} {
		s := openTest(t, Config{CacheBytes: cacheBytes})
		if _, err := s.Put64("k64", genF64(t, "wave", 100, 1)); err != nil {
			t.Fatal(err)
		}
		d32, d64 := make([]float32, 3, 64), make([]float64, 2, 64)
		same := func(what string, g32 []float32, g64 []float64, err, want error) {
			t.Helper()
			if !errors.Is(err, want) {
				t.Errorf("cache=%d %s: err = %v, want %v", cacheBytes, what, err, want)
			}
			if len(g32) != len(d32) || cap(g32) != cap(d32) || len(g64) != len(d64) || cap(g64) != cap(d64) {
				t.Errorf("cache=%d %s: destination came back as %d/%d fp32 and %d/%d fp64 values",
					cacheBytes, what, len(g32), cap(g32), len(g64), cap(g64))
			}
		}
		g32, _, err := s.Get32IntoCached(d32, "missing", nil)
		same("Get32IntoCached(missing)", g32, d64, err, ErrNotFound)
		g32, _, err = s.Get32IntoCached(d32, "k64", nil)
		same("Get32IntoCached(fp64 key)", g32, d64, err, ErrWidth)
		g64, _, err := s.Get64IntoCached(d64, "missing", nil)
		same("Get64IntoCached(missing)", d32, g64, err, ErrNotFound)
		v, _, err := s.GetVec(vec.Vec{F32: d32, F64: d64}, "missing", false, nil)
		same("GetVec(missing)", v.F32, v.F64, err, ErrNotFound)
		if v.Width != 0 {
			t.Errorf("GetVec(missing) width = %d, want 0", v.Width)
		}
		// And on success only the matching side grows.
		v, _, err = s.GetVec(vec.Vec{F32: d32, F64: d64}, "k64", false, nil)
		if err != nil || v.Width != 64 || len(v.F32) != len(d32) || len(v.F64) != len(d64)+100 {
			t.Errorf("GetVec(k64) = %d fp32, %d fp64, width %d, err %v", len(v.F32), len(v.F64), v.Width, err)
		}
	}
}
