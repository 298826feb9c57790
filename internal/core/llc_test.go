package core

import (
	"math"
	"testing"

	"avr/internal/compress"
	"avr/internal/dram"
	"avr/internal/mem"
)

// testRig builds a small AVR LLC (64 KiB, 16-way, 64 sets) over a 4 MiB
// space with one approximable region.
type testRig struct {
	space *mem.Space
	dram  *dram.DRAM
	llc   *LLC
	base  uint64 // approx region base (block aligned)
}

func newRig(t *testing.T, cfgMod func(*Config)) *testRig {
	t.Helper()
	space := mem.NewSpace(4 << 20)
	base := space.AllocApprox(1<<20, compress.Float32)
	d := dram.New(dram.DDR4(1, 1))
	cfg := DefaultConfig(64 << 10)
	cfg.CMTCachePages = 64
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	return &testRig{space: space, dram: d, llc: New(cfg, space, d), base: base}
}

// fillBlock writes a smooth (compressible) ramp into the block at addr.
func (r *testRig) fillBlock(blockAddr uint64, seed float32) {
	for i := 0; i < compress.BlockValues; i++ {
		r.space.StoreF32(blockAddr+uint64(4*i), seed+float32(i)*0.01)
	}
}

// dirtyAllLines write-backs all 16 lines of a block into the LLC.
func (r *testRig) dirtyAllLines(blockAddr uint64) {
	for cl := 0; cl < compress.BlockLines; cl++ {
		r.llc.WriteBack(0, blockAddr+uint64(cl*64))
	}
}

func TestMissThenUCLHit(t *testing.T) {
	r := newRig(t, nil)
	addr := r.base
	lat1 := r.llc.Access(0, addr)
	if lat1 <= uint64(r.llc.cfg.HitCycles) {
		t.Errorf("cold miss latency %d too small", lat1)
	}
	lat2 := r.llc.Access(lat1, addr)
	if lat2 != uint64(r.llc.cfg.HitCycles) {
		t.Errorf("UCL hit latency = %d, want %d", lat2, r.llc.cfg.HitCycles)
	}
	s := r.llc.Stats()
	if s.ApproxMiss != 1 || s.ApproxUncompHit != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNonApproxPathUnaffected(t *testing.T) {
	r := newRig(t, nil)
	// Address outside the approx region.
	naddr := r.space.Alloc(4096, 64)
	r.llc.Access(0, naddr)
	r.llc.Access(0, naddr)
	s := r.llc.Stats()
	if s.NonApproxMisses != 1 || s.NonApproxHits != 1 {
		t.Errorf("non-approx stats = %+v", s)
	}
	if s.Compresses != 0 || s.Decompresses != 0 {
		t.Error("non-approx access must not touch the compressor")
	}
}

func TestZeroAVRNeverCompresses(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ApproxEnabled = false })
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 5)
	r.dirtyAllLines(blk)
	r.llc.Flush(0)
	s := r.llc.Stats()
	if s.Compresses != 0 {
		t.Errorf("ZeroAVR compressed %d blocks", s.Compresses)
	}
	// Values must be bit-exact.
	if r.space.LoadF32(blk) != 5 {
		t.Error("ZeroAVR altered data")
	}
}

func TestWritebackCompressesBlock(t *testing.T) {
	r := newRig(t, nil)
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 100)
	r.dirtyAllLines(blk)
	// Force everything out.
	r.llc.Flush(0)
	e := r.llc.CMT().Lookup(blk)
	if !e.Compressed {
		t.Fatalf("block not compressed after flush: %+v", e)
	}
	if e.SizeLines == 0 || e.SizeLines > 8 {
		t.Errorf("size = %d", e.SizeLines)
	}
	// Values must now be the reconstruction (close to original ramp).
	for i := 0; i < compress.BlockValues; i += 37 {
		got := float64(r.space.LoadF32(blk + uint64(4*i)))
		want := 100 + float64(i)*0.01
		if math.Abs(got-want)/want > 0.04 {
			t.Fatalf("value %d = %v, want ≈%v", i, got, want)
		}
	}
}

func TestCompressedBlockFetchAndDBUF(t *testing.T) {
	r := newRig(t, nil)
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 50)
	r.dirtyAllLines(blk)
	r.llc.Flush(0)

	// New LLC over the same space/CMT state is complex; instead evict by
	// touching many other blocks... simpler: build a fresh rig sharing
	// nothing. Here just re-access after flush: the compressed block is
	// no longer in the LLC (flush wrote it out and dropped CMSs).
	lat := r.llc.Access(1000, blk)
	if lat <= uint64(r.llc.cfg.HitCycles) {
		t.Errorf("block fetch latency = %d", lat)
	}
	s := r.llc.Stats()
	if s.ApproxMiss == 0 {
		t.Error("expected an approx miss")
	}
	// Second line of the same block: DBUF hit.
	lat2 := r.llc.Access(2000, blk+64)
	if lat2 != uint64(r.llc.cfg.HitCycles) {
		t.Errorf("DBUF hit latency = %d", lat2)
	}
	if r.llc.Stats().ApproxDBUFHit != 1 {
		t.Errorf("DBUF hits = %d", r.llc.Stats().ApproxDBUFHit)
	}
}

// thrash streams a non-approx region through the LLC to push out every
// resident UCL.
func (r *testRig) thrash(bytes int) {
	base := r.space.Alloc(uint64(bytes), 64)
	for off := 0; off < bytes; off += 64 {
		r.llc.Access(0, base+uint64(off))
	}
}

func TestCompressedHitInLLC(t *testing.T) {
	r := newRig(t, nil)
	blk := mem.BlockAddr(r.base)
	blk2 := mem.BlockAddr(r.base + 4*compress.BlockBytes)
	for _, b := range []uint64{blk, blk2} {
		r.fillBlock(b, 50)
		r.dirtyAllLines(b)
	}
	r.llc.Flush(0) // blocks compressed in memory; stray clean UCLs remain
	r.thrash(256 << 10)

	// Fetch the first block: installs CMSs + line-0 UCL, loads the DBUF.
	r.llc.Access(0, blk)
	// Displace the DBUF with the second compressed block.
	r.llc.Access(0, blk2)
	if r.llc.dbufHit(blk) {
		t.Fatal("setup: DBUF still holds the first block")
	}
	// Request line 5 of the first block: UCL miss, CMS hit.
	before := r.llc.Stats().ApproxCompHit
	lat := r.llc.Access(0, blk+5*64)
	if r.llc.Stats().ApproxCompHit != before+1 {
		t.Fatalf("expected compressed hit; stats %+v", r.llc.Stats())
	}
	if lat <= uint64(r.llc.cfg.HitCycles) || lat > 100 {
		t.Errorf("compressed hit latency = %d, want tens of cycles", lat)
	}
}

func TestLazyWriteback(t *testing.T) {
	r := newRig(t, nil)
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 10)
	r.dirtyAllLines(blk)
	r.llc.Flush(0) // block now compressed in memory, not in LLC
	e := r.llc.CMT().Lookup(blk)
	if !e.Compressed {
		t.Fatal("setup: block not compressed")
	}
	// Dirty one line and evict it: block absent from LLC, space free →
	// lazy writeback.
	r.llc.WriteBack(0, blk+3*64)
	before := r.llc.Stats().EvLazyWB
	r.llc.Flush(0)
	if r.llc.Stats().EvLazyWB != before+1 {
		t.Errorf("lazy writebacks = %d, want %d; stats %+v", r.llc.Stats().EvLazyWB, before+1, r.llc.Stats())
	}
	if e.Lazy != 1 {
		t.Errorf("CMT lazy count = %d", e.Lazy)
	}
}

func TestLazyDisabledFetchesAndRecompacts(t *testing.T) {
	r := newRig(t, func(c *Config) { c.LazyEvictions = false })
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 10)
	r.dirtyAllLines(blk)
	r.llc.Flush(0)
	r.llc.WriteBack(0, blk+3*64)
	r.llc.Flush(0)
	s := r.llc.Stats()
	if s.EvLazyWB != 0 {
		t.Error("lazy writeback occurred despite being disabled")
	}
	if s.EvFetchRecompress < 2 { // initial compress + recompaction
		t.Errorf("fetch+recompress = %d", s.EvFetchRecompress)
	}
}

func TestLazyLinesFoldedOnFetch(t *testing.T) {
	r := newRig(t, nil)
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 10)
	r.dirtyAllLines(blk)
	r.llc.Flush(0)
	// Lazy-evict a modified line.
	r.space.StoreF32(blk+3*64, 999) // exact store value
	r.llc.WriteBack(0, blk+3*64)
	r.llc.Flush(0)
	e := r.llc.CMT().Lookup(blk)
	if e.Lazy != 1 {
		t.Fatalf("setup: lazy = %d", e.Lazy)
	}
	// Fetch the block: lazy lines folded, block recompressed dirty.
	r.llc.Access(0, blk)
	if e.Lazy != 0 {
		t.Errorf("lazy lines not folded on fetch: %d", e.Lazy)
	}
	// 999 became part of the block (likely as outlier → exact, or at
	// least approximated).
	got := float64(r.space.LoadF32(blk + 3*64))
	if math.Abs(got-999)/999 > 0.04 {
		t.Errorf("folded lazy value = %v, want ≈999", got)
	}
}

func TestSkipHistoryAvoidsAttempts(t *testing.T) {
	r := newRig(t, nil)
	blk := mem.BlockAddr(r.base)
	// Fill with incompressible noise (alternating signs).
	for i := 0; i < compress.BlockValues; i++ {
		v := float32(5.0)
		if i%2 == 1 {
			v = -5.0
		}
		r.space.StoreF32(blk+uint64(4*i), v)
	}
	attempts := func() uint64 { return r.llc.Stats().Compresses }
	// Evict the same dirty line repeatedly.
	for k := 0; k < 6; k++ {
		r.llc.WriteBack(0, blk)
		r.llc.Flush(0)
	}
	// With the skip schedule, attempts must be well below 6.
	if got := attempts(); got >= 6 {
		t.Errorf("compression attempts = %d, want < 6 with skip history", got)
	}
	if r.llc.Stats().EvUncompWB == 0 {
		t.Error("expected uncompressed writebacks")
	}
}

func TestSkipHistoryDisabled(t *testing.T) {
	r := newRig(t, func(c *Config) { c.SkipHistory = false })
	blk := mem.BlockAddr(r.base)
	for i := 0; i < compress.BlockValues; i++ {
		v := float32(5.0)
		if i%2 == 1 {
			v = -5.0
		}
		r.space.StoreF32(blk+uint64(4*i), v)
	}
	for k := 0; k < 6; k++ {
		r.llc.WriteBack(0, blk)
		r.llc.Flush(0)
	}
	if got := r.llc.Stats().Compresses; got != 6 {
		t.Errorf("attempts = %d, want 6 without skip history", got)
	}
}

func TestPFEPrefetchesHotBlocks(t *testing.T) {
	r := newRig(t, nil)
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 10)
	r.dirtyAllLines(blk)
	r.llc.Flush(0)
	// Fetch and touch ≥ half the block's lines via DBUF.
	r.llc.Access(0, blk)
	for cl := 1; cl < 9; cl++ {
		r.llc.Access(0, blk+uint64(cl*64))
	}
	// Bring in another block: PFE should save the remaining lines.
	blk2 := mem.BlockAddr(r.base + 8*compress.BlockBytes)
	r.fillBlock(blk2, 20)
	r.dirtyAllLines(blk2)
	r.llc.Flush(0)
	r.llc.Access(0, blk2)
	if r.llc.Stats().Prefetches == 0 {
		t.Error("PFE did not prefetch despite 9/16 lines requested")
	}
	// The prefetched lines now hit as UCLs.
	before := r.llc.Stats().ApproxUncompHit
	r.llc.Access(0, blk+15*64)
	if r.llc.Stats().ApproxUncompHit != before+1 {
		t.Error("prefetched line did not hit")
	}
}

func TestPFEDisabledDropsLines(t *testing.T) {
	r := newRig(t, func(c *Config) { c.PFEEnabled = false })
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 10)
	r.dirtyAllLines(blk)
	r.llc.Flush(0)
	r.llc.Access(0, blk)
	for cl := 1; cl < 9; cl++ {
		r.llc.Access(0, blk+uint64(cl*64))
	}
	blk2 := mem.BlockAddr(r.base + 8*compress.BlockBytes)
	r.fillBlock(blk2, 20)
	r.dirtyAllLines(blk2)
	r.llc.Flush(0)
	r.llc.Access(0, blk2)
	if r.llc.Stats().Prefetches != 0 {
		t.Error("PFE ran despite being disabled")
	}
}

func TestRequestBreakdownConsistency(t *testing.T) {
	// Property-ish: the four Fig. 14 categories plus non-approx accesses
	// must account for every request.
	r := newRig(t, nil)
	for i := 0; i < 500; i++ {
		off := uint64((i * 2777) % (1 << 19))
		r.llc.Access(uint64(i*10), r.base+off&^63)
		if i%7 == 0 {
			r.llc.WriteBack(uint64(i*10), r.base+off&^63)
		}
	}
	s := r.llc.Stats()
	sum := s.ApproxMiss + s.ApproxUncompHit + s.ApproxDBUFHit + s.ApproxCompHit +
		s.NonApproxHits + s.NonApproxMisses
	if sum != s.Requests {
		t.Errorf("request breakdown %d != requests %d: %+v", sum, s.Requests, s)
	}
}

func TestReconstructionErrorBounded(t *testing.T) {
	// End-to-end: write compressible data, force compression, verify the
	// functional image error stays within T1 everywhere.
	r := newRig(t, nil)
	th := compress.DefaultThresholds()
	nBlocks := 32
	orig := make([]float32, nBlocks*compress.BlockValues)
	for b := 0; b < nBlocks; b++ {
		blk := mem.BlockAddr(r.base) + uint64(b*compress.BlockBytes)
		for i := 0; i < compress.BlockValues; i++ {
			v := float32(20 + 0.05*float64(i) + float64(b))
			orig[b*compress.BlockValues+i] = v
			r.space.StoreF32(blk+uint64(4*i), v)
		}
		r.dirtyAllLines(blk)
	}
	r.llc.Flush(0)
	for b := 0; b < nBlocks; b++ {
		blk := mem.BlockAddr(r.base) + uint64(b*compress.BlockBytes)
		for i := 0; i < compress.BlockValues; i++ {
			got := float64(r.space.LoadF32(blk + uint64(4*i)))
			want := float64(orig[b*compress.BlockValues+i])
			if math.Abs(got-want)/want > th.T1 {
				t.Fatalf("block %d value %d: %v vs %v", b, i, got, want)
			}
		}
	}
}

func TestEvictionBreakdownNonZeroUnderPressure(t *testing.T) {
	// Stream far more blocks than the LLC holds; evictions of all kinds
	// must occur and traffic must flow.
	r := newRig(t, nil)
	blocks := 256 // 256 KiB of approx data through a 64 KiB LLC
	for b := 0; b < blocks; b++ {
		blk := mem.BlockAddr(r.base) + uint64(b*compress.BlockBytes)
		r.fillBlock(blk, float32(b))
		r.dirtyAllLines(blk)
	}
	s := r.llc.Stats()
	if s.EvRecompress+s.EvLazyWB+s.EvFetchRecompress+s.EvUncompWB == 0 {
		t.Errorf("no evictions recorded under pressure: %+v", s)
	}
	if r.dram.Stats().TotalBytes() == 0 {
		t.Error("no DRAM traffic")
	}
}

func TestCompressionReducesTraffic(t *testing.T) {
	// The headline effect: streaming reads of compressible data move far
	// fewer bytes with AVR than the uncompressed baseline would.
	r := newRig(t, nil)
	nBlocks := 128
	for b := 0; b < nBlocks; b++ {
		blk := mem.BlockAddr(r.base) + uint64(b*compress.BlockBytes)
		r.fillBlock(blk, 30)
		r.dirtyAllLines(blk)
	}
	r.llc.Flush(0)
	readStart := r.dram.Stats().BytesRead
	// Stream-read everything (LLC too small to hold it).
	now := uint64(0)
	for b := 0; b < nBlocks; b++ {
		blk := mem.BlockAddr(r.base) + uint64(b*compress.BlockBytes)
		for cl := 0; cl < compress.BlockLines; cl++ {
			now += r.llc.Access(now, blk+uint64(cl*64))
		}
	}
	read := r.dram.Stats().BytesRead - readStart
	uncompressed := uint64(nBlocks * compress.BlockBytes)
	if read*4 > uncompressed {
		t.Errorf("read %d bytes for %d uncompressed: less than 4:1", read, uncompressed)
	}
}

func TestFlushIdempotent(t *testing.T) {
	r := newRig(t, nil)
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 10)
	r.dirtyAllLines(blk)
	r.llc.Flush(0)
	w1 := r.dram.Stats().BytesWritten
	r.llc.Flush(0)
	if r.dram.Stats().BytesWritten != w1 {
		t.Error("second flush wrote more data")
	}
}

// TestRecompressionAllocFree holds the recompression flows to zero
// allocations with outliers in play. BenchmarkSystemAccessAVRWrite gates
// the write path per access, where about one access in a thousand
// recompresses, so an allocation per recompression would round to 0
// allocs/op there; here every op of the measured loop recompresses a
// block that keeps sixteen outliers (one spike per line).
func TestRecompressionAllocFree(t *testing.T) {
	r := newRig(t, func(c *Config) { c.LazyEvictions = false })
	blk := mem.BlockAddr(r.base)
	r.fillBlock(blk, 100)
	for cl := 0; cl < compress.BlockLines; cl++ {
		r.space.StoreF32(blk+uint64(cl*64), -1e6)
	}
	cycle := func() {
		r.dirtyAllLines(blk)
		r.llc.Flush(0)
	}
	cycle()
	before := r.llc.Stats()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("a writeback+flush cycle allocates %v times", allocs)
	}
	s := r.llc.Stats()
	if s.EvFetchRecompress == before.EvFetchRecompress || s.Outliers == before.Outliers {
		t.Fatalf("the cycle did not recompress with outliers: before %+v, after %+v", before, s)
	}
}

func TestNewPanicsOnTinyLLC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for < 16 sets")
		}
	}()
	space := mem.NewSpace(1 << 20)
	New(DefaultConfig(8<<10), space, dram.New(dram.DDR4(1, 1))) // 8 sets
}
