package store

import (
	"fmt"
	"math/rand"
	"testing"

	"avr/internal/obs"
	"avr/internal/vec"
	"avr/internal/workloads"
)

func benchStore(b *testing.B, cfg Config) *Store {
	b.Helper()
	cfg.Dir = b.TempDir()
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func benchVals32(b *testing.B, dist string, n int) []float32 {
	b.Helper()
	vals, err := workloads.GenFloat32(dist, n, 42)
	if err != nil {
		b.Fatal(err)
	}
	return vals
}

func benchVals64(b *testing.B, dist string, n int) []float64 {
	b.Helper()
	vals, err := workloads.GenFloat64(dist, n, 42)
	if err != nil {
		b.Fatal(err)
	}
	return vals
}

// BenchmarkStorePut32 measures the full put path — encode, frame, CRC,
// write — for a compressible fp32 vector, overwriting one key.
func BenchmarkStorePut32(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "heat", 4*BlockValues)
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put32("bench", vals); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.AchievedRatio > 0 {
		b.ReportMetric(st.AchievedRatio, "ratio")
	}
}

// BenchmarkStorePutEncoded32 is StorePut32 with the encode done
// elsewhere: the container of the same vector checked, framed and
// written. The difference between the two is what a replica saves when
// the router has encoded; MB/s is still raw value bytes stored.
func BenchmarkStorePutEncoded32(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "heat", 4*BlockValues)
	container := containerFor(b, s, vec.Of32(vals))
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PutEncoded("bench", container, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(4*len(vals))/float64(len(container)), "ratio")
}

// BenchmarkStorePut32Noise is the worst case: incompressible data that
// falls through to the lossless path (and, after the first put, the
// flagged skip path).
func BenchmarkStorePut32Noise(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "normal", 4*BlockValues)
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put32("bench", vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorePut64(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals64(b, "wave", 2*BlockValues)
	b.SetBytes(int64(8 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put64("bench", vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet32 measures the read path — pread, CRC verify,
// decode — through Get32IntoCached (cache off) with a reused destination, so the steady
// state is allocation-free (Get32 itself allocates only the result).
func BenchmarkStoreGet32(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "heat", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, 0, len(vals))
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := s.Get32IntoCached(dst, "bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
}

// BenchmarkStoreGetEncoded32 reads StoreGet32's key as its container
// (GetEncoded) into a retained buffer: pread, CRC and each block appended
// as it is stored, no decode — a shard's part of a router read, the
// decode left to the router. MB/s is raw value bytes covered.
func BenchmarkStoreGetEncoded32(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "heat", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	var c []byte
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if c, _, _, err = s.GetEncoded(c[:0], "bench", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(4*len(vals))/float64(len(c)), "ratio")
}

// BenchmarkStoreGet32Noise is StoreGet32 on a vector stored through the
// lossless fallback: pread, CRC, BDI line decode and the little-endian
// conversion into the destination — none of the AVR decode. No other
// benchmark reads a lossless block, which is how a +40 % regression on
// this path once went unseen.
func BenchmarkStoreGet32Noise(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "normal", 4*BlockValues)
	if res, err := s.Put32("bench", vals); err != nil || res.LosslessBlocks != res.Blocks {
		b.Fatalf("seeding: %d of %d blocks lossless, err %v", res.LosslessBlocks, res.Blocks, err)
	}
	dst := make([]float32, 0, len(vals))
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := s.Get32IntoCached(dst, "bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
}

// BenchmarkCacheHitGet32 measures the summary-line cache hit path on
// the same vector as BenchmarkStoreGet32: seq validation, SIMD
// interpolate, the vectorized fixed→float sweep straight into the
// reused destination, outlier patch-in — no segment read, no CRC, no
// per-value decode. The ratio of the two MB/s numbers is the cache's
// speedup; the alloc gate pins it at 0 allocs/op.
func BenchmarkCacheHitGet32(b *testing.B) {
	s := benchStore(b, Config{CacheBytes: 64 << 20})
	vals := benchVals32(b, "heat", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	s.loadCacheLine("bench", false)
	if !s.cache.Contains("bench") {
		b.Fatal("warm fill did not cache the line")
	}
	dst := make([]float32, 0, len(vals))
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, src, err := s.Get32IntoCached(dst, "bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		if src != CacheHit {
			b.Fatalf("served as %q, want hit", src)
		}
		dst = out[:0]
	}
}

// BenchmarkCacheMissGet32 is the other side of the cache on the same
// vector: every read finds the line gone, takes the disk path and leaves
// the line resident again, built from the frames it decoded. Its
// distance from BenchmarkStoreGet32 is what filling costs a miss.
func BenchmarkCacheMissGet32(b *testing.B) {
	s := benchStore(b, Config{CacheBytes: 64 << 20})
	vals := benchVals32(b, "heat", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, 0, len(vals))
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Invalidate("bench")
		out, src, err := s.Get32IntoCached(dst, "bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		if src != CacheMiss {
			b.Fatalf("served as %q, want miss", src)
		}
		dst = out[:0]
	}
	if !s.cache.Contains("bench") {
		b.Fatal("the miss did not leave the line resident")
	}
}

// BenchmarkCacheThrashGet32 is the cache under a working set it cannot
// hold, read_cold's shape: uniform cached reads over 64 KiB fp32 keys
// whose lines total at least ten times a 1 MiB budget. Most reads miss,
// and admission leaves most misses lineless — no line built, cloned or
// inserted, nothing evicted; only a key that misses again while its
// shard still remembers it is filed. hits/op and evictions/op say how
// the cache fared.
func BenchmarkCacheThrashGet32(b *testing.B) {
	const budget = 1 << 20
	s := benchStore(b, Config{CacheBytes: budget})
	var vecs [8][]float32
	for i := range vecs {
		v, err := workloads.GenFloat32("heat", 4*BlockValues, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		vecs[i] = v
	}
	var keys []string
	for lines := int64(0); lines < 10*budget; {
		k := fmt.Sprintf("thrash-%05d", len(keys))
		if _, err := s.Put32(k, vecs[len(keys)%len(vecs)]); err != nil {
			b.Fatal(err)
		}
		lines += s.index[k].lineBound(k)
		keys = append(keys, k)
	}
	dst := make([]float32, 0, 4*BlockValues)
	for _, k := range keys { // one pass fills every shard: the timed reads find it under pressure
		out, _, err := s.Get32IntoCached(dst, k, nil)
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
	rng := rand.New(rand.NewSource(11))
	hits := 0
	evicted := obs.CacheEvictions.Value()
	b.SetBytes(4 * 4 * BlockValues)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, src, err := s.Get32IntoCached(dst, keys[rng.Intn(len(keys))], nil)
		if err != nil {
			b.Fatal(err)
		}
		if src == CacheHit {
			hits++
		}
		dst = out[:0]
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(obs.CacheEvictions.Value()-evicted)/float64(b.N), "evictions/op")
}

// BenchmarkCacheHitGet64 is the fp64 hit path: scalar interpolate, the
// AVX-512 fixed→float sweep where the host has it, no segment read.
func BenchmarkCacheHitGet64(b *testing.B) {
	s := benchStore(b, Config{CacheBytes: 64 << 20})
	vals := benchVals64(b, "wave", 2*BlockValues)
	if _, err := s.Put64("bench", vals); err != nil {
		b.Fatal(err)
	}
	s.loadCacheLine("bench", false)
	if !s.cache.Contains("bench") {
		b.Fatal("warm fill did not cache the line")
	}
	dst := make([]float64, 0, len(vals))
	b.SetBytes(int64(8 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, src, err := s.Get64IntoCached(dst, "bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		if src != CacheHit {
			b.Fatalf("served as %q, want hit", src)
		}
		dst = out[:0]
	}
}

// BenchmarkCacheLookup isolates the cache data structure itself: one
// sharded-LRU Get with a recency bump, no reconstruction. This is the
// fixed overhead every cached read pays before any value work.
func BenchmarkCacheLookup(b *testing.B) {
	s := benchStore(b, Config{CacheBytes: 64 << 20})
	vals := benchVals32(b, "heat", BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	s.loadCacheLine("bench", false)
	if !s.cache.Contains("bench") {
		b.Fatal("warm fill did not cache the line")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.cache.Get("bench"); !ok {
			b.Fatal("line fell out of the cache")
		}
	}
}

func BenchmarkStoreGet64(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals64(b, "wave", 2*BlockValues)
	if _, err := s.Put64("bench", vals); err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 0, len(vals))
	b.SetBytes(int64(8 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := s.Get64IntoCached(dst, "bench", nil)
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
}

// BenchmarkStoreScan measures the recovery scan rate (walkFrames: the one
// verifier over maxRunBytes chunks) over an in-memory segment image — the
// cost of Open after a crash, per input byte.
func BenchmarkStoreScan(b *testing.B) {
	img := segmentHeader()
	data := benchVals32(b, "heat", BlockValues)
	ll := appendLossless(nil, vec.Of32(data))
	for i := 0; i < 64; i++ {
		img = appendFrame(img, &record{
			Kind: recordBlock, Seq: uint64(i + 1), Key: fmt.Sprintf("k%02d", i),
			BlockIdx: 0, TotalVals: BlockValues, Width: 32, Enc: encLossless,
			ValCount: BlockValues, T1: 1.0 / 32, Data: ll,
		})
	}
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := walkImage(img, maxRunBytes, func(record, int64, int64) error {
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreQueryAggregate32 measures the compressed-domain
// aggregate path: the key's frames read whole, each record reconstructed
// in the fixed domain and reduced there — bytes/op is raw bytes covered,
// not bytes read. Same key as BenchmarkStoreGet32, which scripts/bench.sh
// holds it to within 2× of.
func BenchmarkStoreQueryAggregate32(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "heat", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	var res AggregateResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = s.QueryAggregateTraced("bench", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.BytesTouched)/float64(res.BytesTotal), "touched/total")
}

// BenchmarkStoreQueryAggregate32Noise is the aggregate over lossless
// blocks: nothing to prune, every frame read whole, decoded exactly and
// reduced by the exact slice kernel (touched/total is the stored over
// the raw size).
func BenchmarkStoreQueryAggregate32Noise(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "normal", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	var res AggregateResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = s.QueryAggregateTraced("bench", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.BlocksLossless == 0 {
		b.Fatal("no lossless block was scanned")
	}
	b.ReportMetric(float64(res.BytesTouched)/float64(res.BytesTotal), "touched/total")
}

func BenchmarkStoreQueryAggregate64(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals64(b, "wave", 2*BlockValues)
	if _, err := s.Put64("bench", vals); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(vals)))
	b.ResetTimer()
	var res AggregateResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = s.QueryAggregateTraced("bench", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.BytesTouched)/float64(res.BytesTotal), "touched/total")
}

// BenchmarkStoreQueryFilter32 is a mid-band range over smooth data:
// records whose summary line sits inside or outside the band are
// settled by two integer compares, the rest by three range counts.
func BenchmarkStoreQueryFilter32(b *testing.B) { benchFilter32(b, "wave") }

// BenchmarkStoreQueryFilter32Outliers is the same band over a "mixed"
// key — records that straddle it and carry an outlier bitmap, many
// biases (one threshold mapping each), raw and lossless blocks.
func BenchmarkStoreQueryFilter32Outliers(b *testing.B) { benchFilter32(b, "mixed") }

func benchFilter32(b *testing.B, dist string) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, dist, 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	lo := float64(min) + float64(max-min)/4
	hi := float64(max) - float64(max-min)/4
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryFilterTraced("bench", lo, hi, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreQueryDownsample32 measures the 16→1 summary-derived
// series; unlike the other query ops its result slices allocate.
func BenchmarkStoreQueryDownsample32(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals32(b, "heat", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryDownsampleTraced("bench", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreQueryDownsample64(b *testing.B) {
	s := benchStore(b, Config{})
	vals := benchVals64(b, "wave", 2*BlockValues)
	if _, err := s.Put64("bench", vals); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryDownsampleTraced("bench", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCompact measures compacting a half-dead store to
// convergence (~260 KB of live lossless frames, recompression skips
// included) at 64 KiB segments: several victims, a few frames each.
func BenchmarkStoreCompact(b *testing.B) { benchCompact(b, 64<<10) }

// BenchmarkStoreCompactSeg4M is the same data in one 4 MiB segment — one
// victim, walked in one chunk: what a pass allocates must not grow with
// the size of its victim.
func BenchmarkStoreCompactSeg4M(b *testing.B) { benchCompact(b, 4<<20) }

func benchCompact(b *testing.B, segBytes int64) {
	live := benchVals32(b, "normal", BlockValues)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchStore(b, Config{SegmentTargetBytes: segBytes, minDeadFraction: 0.1})
		for r := 0; r < 8; r++ {
			if _, err := s.Put32(fmt.Sprintf("keep-%d", r), live); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Put32("churn", live); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for {
			_, did, err := s.CompactOnce()
			if err != nil {
				b.Fatal(err)
			}
			if !did {
				break
			}
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}
