// Package core implements the AVR layer of the architecture (ICPP'19
// §3.3–3.5, Figs. 1, 6, 7, 8): the decoupled last-level cache that
// co-locates uncompressed cachelines (UCL) and compressed memory
// subblocks (CMS), the decompressed-block buffer (DBUF) with its
// prefetch engine (PFE), and the request/eviction state machines that
// tie the compressor, the CMT and main memory together.
//
// Structure (Fig. 6). The tag array holds one entry per memory block
// (16 cachelines); the back-pointer array (BPA) and data array hold one
// entry per cacheline. A BPA entry points at its tag through the tag-way
// field. CMS i of a block indexed at tag set ti lives at BPA set
// (ti+i) mod sets with CL-id i; a UCL lives at its conventional set with
// CL-id holding the 4-bit tag suffix. With n index bits, the suffix of
// every UCL of a block is the top 4 bits of ti, and the UCLs occupy the
// 16 consecutive sets starting at (ti mod 2^(n-4))·16.
//
// Functional data convention: the simulated address space always holds
// the current reconstruction of every block (see internal/mem), so
// "decompress and overlay dirty lines" is simply "read the block from the
// space", and successful compression writes the new reconstruction back.
// The one approximation this introduces is documented in DESIGN.md §5.4.
package core

import (
	"fmt"
	"math/bits"

	"avr/internal/cmt"
	"avr/internal/compress"
	"avr/internal/dram"
	"avr/internal/lossless"
	"avr/internal/mem"
	"avr/internal/obs"
)

// The AVR LLC's design constants. cmsReadCycles is the extra latency
// per subblock when reading a compressed block out of the LLC (§3.5).
// prefetchThreshold is the PFE rule (§3.3): prefetch a replaced DBUF
// block's remaining lines when at least this many were explicitly
// requested, half the block.
const (
	cmsReadCycles     = 2
	prefetchThreshold = compress.BlockLines / 2
)

// Config parameterises the AVR LLC.
type Config struct {
	// CapacityBytes and Ways define the data-array geometry (lines of
	// compress.LineBytes).
	CapacityBytes int
	Ways          int
	// HitCycles is the LLC access latency (Table 1: 15 cycles).
	HitCycles int
	// ApproxEnabled globally gates approximation: false yields the
	// ZeroAVR configuration (full AVR structures, nothing approximated).
	ApproxEnabled bool
	Knobs
}

// Knobs are the AVR LLC settings a simulated system is configured with:
// sim.Config embeds them, and sim.New hands them to the LLC whole.
type Knobs struct {
	// Thresholds and Variants configure the compressor.
	Thresholds compress.Thresholds
	Variants   compress.VariantMask
	// LazyEvictions enables lazy writeback of dirty UCLs into the free
	// space of their compressed block in memory (§3.1). Ablation knob.
	LazyEvictions bool
	// SkipHistory enables the badly-compressing-block skip counters
	// (§3.2). Ablation knob.
	SkipHistory bool
	// PFEEnabled enables the prefetch engine. Ablation knob; when false,
	// replaced DBUF lines are simply dropped.
	PFEEnabled bool
	// CMTCachePages sizes the on-chip CMT cache.
	CMTCachePages int
	// LosslessLink compresses non-approximated lines on the memory link
	// (the orthogonal lossless layer of §2; the Baseline design reads it
	// too); LosslessAlgo selects BDI (the default) or FPC.
	LosslessLink bool
	LosslessAlgo lossless.Algorithm
}

// DefaultKnobs returns the paper's settings: every mechanism on, the
// default thresholds, both compressor variants, no lossless link.
func DefaultKnobs() Knobs {
	return Knobs{
		Thresholds:    compress.DefaultThresholds(),
		Variants:      compress.VariantBoth,
		LazyEvictions: true,
		SkipHistory:   true,
		PFEEnabled:    true,
		CMTCachePages: 1024,
	}
}

// DefaultConfig returns an AVR LLC configuration for the given capacity,
// with the paper's settings for everything else.
func DefaultConfig(capacity int) Config {
	return Config{
		CapacityBytes: capacity,
		Ways:          16,
		HitCycles:     15,
		ApproxEnabled: true,
		Knobs:         DefaultKnobs(),
	}
}

// Stats aggregates AVR LLC behaviour. Request categories follow Fig. 14,
// eviction categories Fig. 15.
type Stats struct {
	Requests     uint64
	DemandMisses uint64 // for MPKI

	// Fig. 14: requests on approximate cachelines.
	ApproxMiss      uint64
	ApproxUncompHit uint64
	ApproxDBUFHit   uint64
	ApproxCompHit   uint64
	// Non-approximate requests.
	NonApproxHits   uint64
	NonApproxMisses uint64

	// Fig. 15: evictions of dirty approximate cachelines, classified by
	// outcome.
	EvRecompress      uint64 // block compressed in LLC, updated in place
	EvLazyWB          uint64 // written uncompressed into block free space
	EvFetchRecompress uint64 // block fetched from memory and recompacted
	EvUncompWB        uint64 // written back uncompressed (failed/skipped)

	Compresses   uint64
	Decompresses uint64
	Prefetches   uint64 // DBUF lines saved into the LLC by the PFE
	Accesses     uint64 // array accesses, for the energy model

	// Outliers counts outlier values stored by successful compressions.
	Outliers uint64
	// CompressedFromLines and CompressedToLines accumulate the original
	// (BlockLines) vs stored cacheline counts over successful
	// compressions; their delta ratio is the running compression ratio
	// of the epoch time-series.
	CompressedFromLines uint64
	CompressedToLines   uint64
}

type tagEntry struct {
	blockTag uint64
	stamp    uint64
	cmsCount uint8
	uclCount uint8
	valid    bool
	dirty    bool // the compressed block copy is dirty

	// Forward pointers into the BPA: a host-side index, not modelled
	// hardware (which compares a set's back-pointers in parallel, and is
	// charged for the tag and BPA fields above only). cmsWay[i] is the
	// way of CMS i in set (ti+i) mod sets, for i < cmsCount. Bit cl of
	// uclMask marks the UCL at block offset cl, which sits in way
	// uclWay[cl] of set uclBase(ti)+cl.
	uclMask uint16
	cmsWay  [compress.MaxCompressedLines]uint8
	uclWay  [compress.BlockLines]uint8
}

type bpaEntry struct {
	stamp  uint64
	clID   uint8 // UCL: tag suffix; CMS: subblock index
	tagWay uint8
	valid  bool
	dirty  bool
	isCMS  bool
}

type dbufState struct {
	blockAddr uint64
	valid     bool
	dt        compress.DataType
	requested [compress.BlockLines]bool
	inLLC     [compress.BlockLines]bool
}

// LLC is the AVR last-level cache plus AVR layer. Not safe for
// concurrent use.
//
// The request and eviction paths must stay allocation-free in steady
// state (scratch below is the block-read buffer, and recompression runs
// in compressor scratch): BenchmarkSystemAccessAVR and
// BenchmarkSystemAccessAVRWrite gate the demand and writeback paths at
// 0 allocs/op in CI via scripts/bench.sh.
type LLC struct {
	cfg      Config
	sets     int
	idxBits  uint
	lowMask  uint64 // 2^(n-4)-1
	tags     []tagEntry
	bpa      []bpaEntry
	clock    uint64
	space    *mem.Space
	dramCtrl *dram.DRAM
	table    *cmt.Table
	comp     *compress.Compressor
	dbuf     dbufState
	stats    Stats

	scratch [compress.BlockValues]uint32

	// Compression histograms (nil when disabled; one predicted branch per
	// successful compression when off).
	sizeHist, outHist, errHist *obs.Histogram
}

// New creates the AVR LLC over the given address space and DRAM model.
func New(cfg Config, space *mem.Space, d *dram.DRAM) *LLC {
	sets := cfg.CapacityBytes / (cfg.Ways * compress.LineBytes)
	if sets < compress.BlockLines || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("core: %d sets invalid (need power of two ≥ 16)", sets))
	}
	n := uint(0)
	for 1<<n < sets {
		n++
	}
	if cfg.CMTCachePages < 1 {
		cfg.CMTCachePages = 1
	}
	return &LLC{
		cfg:      cfg,
		sets:     sets,
		idxBits:  n,
		lowMask:  uint64(sets>>4) - 1,
		tags:     make([]tagEntry, sets*cfg.Ways),
		bpa:      make([]bpaEntry, sets*cfg.Ways),
		space:    space,
		dramCtrl: d,
		table:    cmt.NewTable(compress.BlockBytes, cfg.CMTCachePages),
		comp:     compress.NewCompressorVariants(cfg.Thresholds, cfg.Variants),
	}
}

// Stats returns a copy of the accumulated statistics.
func (l *LLC) Stats() Stats { return l.stats }

// CMT exposes the metadata table (for footprint/compression-ratio
// reporting and tests).
func (l *LLC) CMT() *cmt.Table { return l.table }

// SetHistograms attaches the compression histograms: compressed block
// size in cachelines, outliers per block, and average reconstruction
// error, each observed once per successful compression. nil histograms
// (the default) disable observation.
func (l *LLC) SetHistograms(blockSize, outliers, reconErr *obs.Histogram) {
	l.sizeHist, l.outHist, l.errHist = blockSize, outliers, reconErr
}

// ---- address plumbing ----

func (l *LLC) tagIndex(addr uint64) uint64 {
	return (addr >> 10) & uint64(l.sets-1)
}

func (l *LLC) blockTag(addr uint64) uint64 {
	return addr >> (10 + l.idxBits)
}

func (l *LLC) uclSet(addr uint64) uint64 {
	return (addr >> 6) & uint64(l.sets-1)
}

func (l *LLC) suffix(addr uint64) uint8 {
	return uint8((addr >> (6 + l.idxBits)) & 0xF)
}

// blockAddrOf reconstructs a block base address from a tag entry.
func (l *LLC) blockAddrOf(ti uint64, t *tagEntry) uint64 {
	return t.blockTag<<(10+l.idxBits) | ti<<10
}

// cmsSet is the BPA set of CMS i of the block at tag set ti.
func (l *LLC) cmsSet(ti uint64, i int) int {
	return int((ti + uint64(i)) & uint64(l.sets-1))
}

// uclBase is the first of the 16 consecutive BPA sets holding the UCLs
// of the block at tag set ti.
func (l *LLC) uclBase(ti uint64) int {
	return int(ti&l.lowMask) << 4
}

func (l *LLC) tagAt(ti uint64, way int) *tagEntry {
	return &l.tags[int(ti)*l.cfg.Ways+way]
}

func (l *LLC) bpaAt(s, w int) *bpaEntry {
	return &l.bpa[s*l.cfg.Ways+w]
}

// cms returns CMS i (< t.cmsCount) of block (ti, t).
func (l *LLC) cms(ti uint64, t *tagEntry, i int) *bpaEntry {
	return l.bpaAt(l.cmsSet(ti, i), int(t.cmsWay[i]))
}

// ucl returns the UCL at block offset cl of block (ti, t); t.uclMask
// must have bit cl set.
func (l *LLC) ucl(ti uint64, t *tagEntry, cl int) *bpaEntry {
	return l.bpaAt(l.uclBase(ti)+cl, int(t.uclWay[cl]))
}

func (l *LLC) tick() uint64 {
	l.clock++
	return l.clock
}

// approxInfo reports whether addr is approximable under this config.
func (l *LLC) approxInfo(addr uint64) (bool, compress.DataType) {
	if !l.cfg.ApproxEnabled {
		return false, 0
	}
	info := l.space.Info(addr)
	return info.Approx, info.Type
}

// ---- tag array ----

func (l *LLC) findTag(ti uint64, bt uint64) int {
	base := int(ti) * l.cfg.Ways
	for w := 0; w < l.cfg.Ways; w++ {
		t := &l.tags[base+w]
		if t.valid && t.blockTag == bt {
			return w
		}
	}
	return -1
}

// allocTag returns a way for (ti, bt), evicting a victim tag (and every
// line it owns) when the set is full.
func (l *LLC) allocTag(now uint64, ti uint64, bt uint64) int {
	base := int(ti) * l.cfg.Ways
	victim, oldest := -1, ^uint64(0)
	for w := 0; w < l.cfg.Ways; w++ {
		t := &l.tags[base+w]
		if !t.valid {
			victim = w
			oldest = 0
			break
		}
		if t.stamp < oldest {
			oldest = t.stamp
			victim = w
		}
	}
	t := &l.tags[base+victim]
	if t.valid {
		l.evictTag(now, ti, uint8(victim))
	}
	*t = tagEntry{blockTag: bt, valid: true, stamp: l.tick()}
	return victim
}

// evictTag removes a tag entry and all lines pointing at it.
func (l *LLC) evictTag(now uint64, ti uint64, way uint8) {
	t := l.tagAt(ti, int(way))
	if t.cmsCount > 0 {
		l.evictCompressedBlock(now, ti, way)
	}
	blockAddr := l.blockAddrOf(ti, t)
	for m := t.uclMask; m != 0; m &= m - 1 {
		cl := bits.TrailingZeros16(m)
		e := l.ucl(ti, t, cl)
		if e.dirty {
			l.evictDirtyUCL(now, blockAddr|uint64(cl)<<6, ti, way)
		}
		e.valid = false
		e.dirty = false
	}
	t.valid = false
	t.uclCount = 0
	t.uclMask = 0
}

// ---- BPA / UCL ----

// insertUCL installs addr's line as a UCL (allocating its tag if needed),
// evicting a BPA victim when the set is full. tw is the block's tag way
// as the caller looked it up, -1 when it has none; the way used is
// returned. A way is re-checked because a PFE insert since the lookup
// may, in principle, have evicted it.
func (l *LLC) insertUCL(now uint64, addr uint64, tw int, dirty bool) int {
	l.stats.Accesses++
	ti := l.tagIndex(addr)
	bt := l.blockTag(addr)
	if tw >= 0 {
		if t := l.tagAt(ti, tw); !t.valid || t.blockTag != bt {
			tw = l.findTag(ti, bt)
		}
	}
	if tw < 0 {
		tw = l.allocTag(now, ti, bt)
	}
	tag := l.tagAt(ti, tw)
	tag.stamp = l.tick()
	l.touchCMSLRU(ti, tag)

	cl := int((addr >> 6) & 0xF)
	if tag.uclMask&(1<<cl) != 0 {
		e := l.ucl(ti, tag, cl)
		e.stamp = l.tick()
		e.dirty = e.dirty || dirty
		return tw
	}
	s := int(l.uclSet(addr))
	w := l.allocBPA(now, s)
	// The victim handling in allocBPA may have moved tags around; the tag
	// way of our block is stable (tags are only invalidated, never moved).
	*l.bpaAt(s, w) = bpaEntry{valid: true, dirty: dirty, isCMS: false, clID: l.suffix(addr), tagWay: uint8(tw), stamp: l.tick()}
	tag.uclMask |= 1 << cl
	tag.uclWay[cl] = uint8(w)
	tag.uclCount++
	return tw
}

// allocBPA picks a victim way in BPA set s, runs its eviction flow, and
// returns the now-free way.
func (l *LLC) allocBPA(now uint64, s int) int {
	victim, oldest := -1, ^uint64(0)
	for w := 0; w < l.cfg.Ways; w++ {
		e := &l.bpa[s*l.cfg.Ways+w]
		if !e.valid {
			return w
		}
		if e.stamp < oldest {
			oldest = e.stamp
			victim = w
		}
	}
	l.evictBPAEntry(now, s, victim)
	return victim
}

// evictBPAEntry runs the Fig. 8 flow for the entry at (s, w) and
// invalidates it.
func (l *LLC) evictBPAEntry(now uint64, s, w int) {
	e := &l.bpa[s*l.cfg.Ways+w]
	if !e.valid {
		return
	}
	if e.isCMS {
		// Evicting any CMS evicts the whole compressed block.
		ti := (uint64(s) - uint64(e.clID) + uint64(l.sets)) & uint64(l.sets-1)
		l.evictCompressedBlock(now, ti, e.tagWay)
		return
	}
	// UCL.
	ti := uint64(e.clID)<<(l.idxBits-4) | uint64(s)>>4
	tag := l.tagAt(ti, int(e.tagWay))
	clOff := uint64(s) & 0xF
	addr := l.blockAddrOf(ti, tag) | clOff<<6
	dirty := e.dirty
	e.valid = false
	e.dirty = false
	tag.uclMask &^= 1 << clOff
	if tag.uclCount > 0 {
		tag.uclCount--
	}
	if dirty {
		l.evictDirtyUCL(now, addr, ti, e.tagWay)
	}
	if tag.uclCount == 0 && tag.cmsCount == 0 {
		tag.valid = false
	}
}

// ---- eviction flows (Fig. 8) ----

// evictDirtyUCL handles the writeback of one dirty uncompressed line.
func (l *LLC) evictDirtyUCL(now uint64, addr uint64, ti uint64, tagWay uint8) {
	approx, dt := l.approxInfo(addr)
	if !approx {
		l.dramCtrl.AccessBytes(now, addr, l.linkBytes(addr), true, false)
		return
	}
	blockAddr := mem.BlockAddr(addr)
	tag := l.tagAt(ti, int(tagWay))

	if tag.valid && tag.cmsCount > 0 {
		// Compressed block co-located in LLC: update and recompress in
		// place (left branch of Fig. 8).
		l.stats.Accesses += uint64(tag.cmsCount)
		l.stats.Decompresses++
		res := l.compressBlock(blockAddr, dt)
		if res.OK {
			l.stats.EvRecompress++
			l.installRecompressed(now, ti, tagWay, blockAddr, &res)
		} else {
			// The block no longer compresses: drop the stale CMSs and
			// write the line back uncompressed.
			l.stats.EvUncompWB++
			l.dropCMSs(ti, tag)
			e := l.table.Lookup(blockAddr)
			e.RecordFailure()
			l.table.MarkDirty(blockAddr)
			l.dramCtrl.Access(now, addr, true, true)
		}
		return
	}

	e := l.table.Lookup(blockAddr)
	switch {
	case e.Compressed && l.cfg.LazyEvictions && e.FreeLazySlots() > 0:
		// Lazy writeback into the block's free space.
		l.stats.EvLazyWB++
		e.Lazy++
		l.table.MarkDirty(blockAddr)
		l.dramCtrl.Access(now, addr, true, true)

	case e.Compressed:
		// Free space exhausted: fetch, recompact, write back.
		l.dramCtrl.AccessLines(now, blockAddr, e.ReadLines(), false, true)
		l.stats.Decompresses++
		res := l.compressBlock(blockAddr, dt)
		if res.OK {
			l.stats.EvFetchRecompress++
			e.RecordSuccess(res.SizeLines, res.Method, res.Bias)
			l.table.MarkDirty(blockAddr)
			l.foldDirtyUCLs(ti, tag)
			l.dramCtrl.AccessLines(now, blockAddr, res.SizeLines, true, true)
		} else {
			l.stats.EvUncompWB++
			e.RecordFailure()
			l.table.MarkDirty(blockAddr)
			l.dramCtrl.AccessLines(now, blockAddr, compress.BlockLines, true, true)
		}

	default:
		// Block is uncompressed in memory; consult the skip history
		// before burning a compression attempt (§3.5).
		if l.cfg.SkipHistory && !e.ShouldAttempt() {
			l.stats.EvUncompWB++
			l.table.MarkDirty(blockAddr)
			l.dramCtrl.Access(now, addr, true, true)
			return
		}
		l.dramCtrl.AccessLines(now, blockAddr, compress.BlockLines, false, true)
		res := l.compressBlock(blockAddr, dt)
		if res.OK {
			l.stats.EvFetchRecompress++
			e.RecordSuccess(res.SizeLines, res.Method, res.Bias)
			l.table.MarkDirty(blockAddr)
			l.foldDirtyUCLs(ti, tag)
			l.dramCtrl.AccessLines(now, blockAddr, res.SizeLines, true, true)
		} else {
			l.stats.EvUncompWB++
			e.RecordFailure()
			l.table.MarkDirty(blockAddr)
			l.dramCtrl.Access(now, addr, true, true)
		}
	}
}

// evictCompressedBlock evicts a block's compressed copy from the LLC
// (CMS victim or tag eviction): all CMSs are dropped and, when dirty, the
// block is recompacted with its dirty UCLs and written to memory.
func (l *LLC) evictCompressedBlock(now uint64, ti uint64, way uint8) {
	tag := l.tagAt(ti, int(way))
	if tag.cmsCount == 0 {
		return
	}
	blockAddr := l.blockAddrOf(ti, tag)
	dirty := tag.dirty
	l.dropCMSs(ti, tag)
	tag.dirty = false
	if tag.uclCount == 0 {
		tag.valid = false
	}
	if !dirty {
		return
	}
	_, dt := l.approxInfo(blockAddr)
	l.stats.Decompresses++
	res := l.compressBlock(blockAddr, dt)
	e := l.table.Lookup(blockAddr)
	if res.OK {
		l.stats.EvRecompress++
		e.RecordSuccess(res.SizeLines, res.Method, res.Bias)
		l.foldDirtyUCLs(ti, tag)
		l.dramCtrl.AccessLines(now, blockAddr, res.SizeLines, true, true)
	} else {
		l.stats.EvUncompWB++
		e.RecordFailure()
		l.dramCtrl.AccessLines(now, blockAddr, compress.BlockLines, true, true)
	}
	l.table.MarkDirty(blockAddr)
}

// dropCMSs invalidates every CMS entry of block (ti, t).
func (l *LLC) dropCMSs(ti uint64, t *tagEntry) {
	for i := 0; i < int(t.cmsCount); i++ {
		e := l.cms(ti, t, i)
		e.valid = false
		e.dirty = false
	}
	t.cmsCount = 0
}

// foldDirtyUCLs marks all dirty UCLs of block (ti, t) clean after their
// values were folded into a successful recompaction.
func (l *LLC) foldDirtyUCLs(ti uint64, t *tagEntry) {
	for m := t.uclMask; m != 0; m &= m - 1 {
		l.ucl(ti, t, bits.TrailingZeros16(m)).dirty = false
	}
}

// installRecompressed updates the block's in-LLC compressed copy after a
// successful recompression: same or fewer CMSs are updated in place;
// growth beyond the previous footprint is handled by writing the block to
// memory instead (avoiding allocation recursion; see package comment).
func (l *LLC) installRecompressed(now uint64, ti uint64, way uint8, blockAddr uint64, res *compress.FastResult) {
	tag := l.tagAt(ti, int(way))
	e := l.table.Lookup(blockAddr)
	e.RecordSuccess(res.SizeLines, res.Method, res.Bias)
	l.table.MarkDirty(blockAddr)
	l.foldDirtyUCLs(ti, tag)
	if res.SizeLines <= int(tag.cmsCount) {
		// Shrink in place: drop the surplus subblock entries.
		for i := res.SizeLines; i < int(tag.cmsCount); i++ {
			l.cms(ti, tag, i).valid = false
		}
		tag.cmsCount = uint8(res.SizeLines)
		tag.dirty = true
		l.stats.Accesses += uint64(res.SizeLines)
		return
	}
	// Grew: push the fresh copy to memory and drop the LLC copy.
	l.dropCMSs(ti, tag)
	if tag.uclCount == 0 {
		tag.valid = false
	}
	l.dramCtrl.AccessLines(now, blockAddr, res.SizeLines, true, true)
}

// ---- compression helpers ----

// linkBytes returns the memory-link transfer size for a non-approximated
// line: 64 B normally, or its BDI-compressed size when the lossless link
// layer is enabled (1-byte form tag included).
func (l *LLC) linkBytes(addr uint64) int {
	if !l.cfg.LosslessLink {
		return compress.LineBytes
	}
	return lossless.LinkBytes(l.cfg.LosslessAlgo, l.space.Line(addr))
}

// compressBlock is compressInPlace counted in the statistics and
// histograms.
func (l *LLC) compressBlock(blockAddr uint64, dt compress.DataType) compress.FastResult {
	l.stats.Compresses++
	res := l.compressInPlace(blockAddr, dt)
	if res.OK {
		l.stats.Outliers += uint64(len(res.Outliers))
		l.stats.CompressedFromLines += compress.BlockLines
		l.stats.CompressedToLines += uint64(res.SizeLines)
		if l.sizeHist != nil {
			l.sizeHist.Observe(float64(res.SizeLines))
			l.outHist.Observe(float64(len(res.Outliers)))
			l.errHist.Observe(res.AvgError)
		}
	}
	return res
}

// compressInPlace compresses the current (space-resident) content of a
// block, honouring the region's own error thresholds when the page
// carries them (§3.1 extension), through the flat-pass datapath the
// serving codec uses. On success it writes the reconstruction back to
// the space, so every later read observes it; a failed attempt copies
// and decodes nothing. The result's Summary, Bitmap and Outliers alias
// compressor scratch that the next compression overwrites, and a victim
// flow can compress again: callers read only its scalar fields.
func (l *LLC) compressInPlace(blockAddr uint64, dt compress.DataType) compress.FastResult {
	l.space.ReadBlock(blockAddr, &l.scratch)
	th := l.comp.Thresholds()
	if p := l.space.Info(blockAddr).Thresholds; p != nil {
		th = *p
	}
	res := l.comp.CompressFastWith(&l.scratch, dt, th)
	if res.OK {
		l.comp.DecompressFast(&l.scratch, &res, dt)
		l.space.WriteBlock(blockAddr, &l.scratch)
	}
	return res
}

// ---- DBUF / PFE ----

// loadDBUF replaces the DBUF content with blockAddr, first letting the
// PFE decide whether to save the old block's unfetched lines (§3.3).
func (l *LLC) loadDBUF(now uint64, blockAddr uint64, dt compress.DataType) {
	if l.dbuf.valid && l.cfg.PFEEnabled {
		req := 0
		for _, r := range l.dbuf.requested {
			if r {
				req++
			}
		}
		if req >= prefetchThreshold {
			tw := l.findTag(l.tagIndex(l.dbuf.blockAddr), l.blockTag(l.dbuf.blockAddr))
			for cl := 0; cl < compress.BlockLines; cl++ {
				if !l.dbuf.inLLC[cl] {
					l.stats.Prefetches++
					tw = l.insertUCL(now, l.dbuf.blockAddr|uint64(cl)<<6, tw, false)
				}
			}
		}
	}
	l.dbuf = dbufState{blockAddr: blockAddr, valid: true, dt: dt}
}

// dbufHit reports whether addr is currently held in the DBUF.
func (l *LLC) dbufHit(addr uint64) bool {
	return l.dbuf.valid && l.dbuf.blockAddr == mem.BlockAddr(addr)
}

// ---- request handling (Fig. 7) ----

// Access serves a demand request (an L2 miss) for the line containing
// addr at time now and returns the latency seen by the requester.
func (l *LLC) Access(now uint64, addr uint64) uint64 {
	l.stats.Requests++
	l.stats.Accesses++
	approx, dt := l.approxInfo(addr)
	hit := uint64(l.cfg.HitCycles)
	cl := int((addr >> 6) & 0xF)
	ti := l.tagIndex(addr)
	bt := l.blockTag(addr)
	tw := l.findTag(ti, bt)

	// 1. DBUF lookup (in parallel with the tag array).
	if approx && l.dbufHit(addr) {
		l.stats.ApproxDBUFHit++
		l.dbuf.requested[cl] = true
		l.dbuf.inLLC[cl] = true
		l.insertUCL(now, addr, tw, false)
		return hit
	}

	if tw >= 0 {
		tag := l.tagAt(ti, tw)
		// 2. UCL lookup. Accessing any UCL of a block refreshes the tag
		// LRU and the block's CMS LRU bits (§3.4), keeping a co-located
		// compressed copy alive while the block is hot.
		if tag.uclMask&(1<<cl) != 0 {
			l.ucl(ti, tag, cl).stamp = l.tick()
			tag.stamp = l.tick()
			l.touchCMSLRU(ti, tag)
			if approx {
				l.stats.ApproxUncompHit++
			} else {
				l.stats.NonApproxHits++
			}
			return hit
		}
		// 3. CMS lookup.
		if approx && tag.cmsCount > 0 {
			l.stats.ApproxCompHit++
			l.stats.Decompresses++
			l.stats.Accesses += uint64(tag.cmsCount)
			lat := hit + uint64(tag.cmsCount)*cmsReadCycles + compress.DecompressLatency
			tag.stamp = l.tick()
			l.touchCMSLRU(ti, tag)
			l.loadDBUF(now, mem.BlockAddr(addr), dt)
			l.dbuf.requested[cl] = true
			l.dbuf.inLLC[cl] = true
			l.insertUCL(now, addr, tw, false)
			return lat
		}
	}

	// 4. Miss.
	l.stats.DemandMisses++
	if !approx {
		l.stats.NonApproxMisses++
		done := l.dramCtrl.AccessBytes(now, addr, l.linkBytes(addr), false, false)
		l.insertUCL(now, addr, tw, false)
		return done - now + hit
	}

	l.stats.ApproxMiss++
	blockAddr := mem.BlockAddr(addr)
	e := l.table.Lookup(blockAddr)
	if !e.Compressed {
		// Uncompressed block: fetch just the requested line (Fig. 7).
		done := l.dramCtrl.Access(now, addr, false, true)
		l.insertUCL(now, addr, tw, false)
		return done - now + hit
	}

	// Compressed block: fetch summary+outliers (+ lazy lines), decompress.
	done := l.dramCtrl.AccessLines(now, blockAddr, e.ReadLines(), false, true)
	l.stats.Decompresses++
	lat := done - now + compress.DecompressLatency + hit

	if e.Lazy > 0 {
		// Fold the lazily evicted lines in and recompress immediately;
		// the block enters the LLC dirty (§3.5).
		res := l.compressBlock(blockAddr, dt)
		if res.OK {
			e.RecordSuccess(res.SizeLines, res.Method, res.Bias)
			l.table.MarkDirty(blockAddr)
			tw = l.installCMSs(now, ti, bt, tw, res.SizeLines, true)
		} else {
			// The updated block no longer compresses: it becomes
			// uncompressed in memory.
			e.RecordFailure()
			l.table.MarkDirty(blockAddr)
			l.dramCtrl.AccessLines(now, blockAddr, compress.BlockLines, true, true)
		}
	} else {
		tw = l.installCMSs(now, ti, bt, tw, int(e.SizeLines), false)
	}

	l.loadDBUF(now, blockAddr, dt)
	l.dbuf.requested[cl] = true
	l.dbuf.inLLC[cl] = true
	l.insertUCL(now, addr, tw, false)
	return lat
}

// WriteBack receives a dirty line written back from the L2: the line is
// installed (or updated) as a dirty UCL.
func (l *LLC) WriteBack(now uint64, addr uint64) {
	l.stats.Accesses++
	ti := l.tagIndex(addr)
	tw := l.findTag(ti, l.blockTag(addr))
	if tw >= 0 {
		if tag, cl := l.tagAt(ti, tw), int((addr>>6)&0xF); tag.uclMask&(1<<cl) != 0 {
			e := l.ucl(ti, tag, cl)
			e.dirty = true
			e.stamp = l.tick()
			// A writeback is an access to a UCL of the block: refresh the
			// tag and CMS LRU bits (§3.4) so the co-located compressed
			// copy outlives its dirty lines and absorbs them by
			// recompression.
			tag.stamp = l.tick()
			l.touchCMSLRU(ti, tag)
			return
		}
	}
	l.insertUCL(now, addr, tw, true)
}

// touchCMSLRU refreshes the LRU stamps of block (ti, t)'s CMS entries
// ("the CMS LRU bits are updated when any UCL of the block is
// accessed").
func (l *LLC) touchCMSLRU(ti uint64, t *tagEntry) {
	for i := 0; i < int(t.cmsCount); i++ {
		l.cms(ti, t, i).stamp = l.tick()
	}
}

// installCMSs stores a compressed block's subblocks into the LLC at
// consecutive sets starting from its tag index ti (§3.4). tw is the
// block's tag way, -1 when it has none; the way used is returned.
func (l *LLC) installCMSs(now uint64, ti, bt uint64, tw int, size int, dirty bool) int {
	if tw < 0 {
		tw = l.allocTag(now, ti, bt)
	}
	tag := l.tagAt(ti, tw)
	if tag.cmsCount > 0 {
		l.dropCMSs(ti, tag)
	}
	// While installing, the block is treated as absent (count 0) so any
	// victim flows triggered below cannot alias the half-installed copy.
	tag.cmsCount = 0
	for i := 0; i < size; i++ {
		s := l.cmsSet(ti, i)
		w := l.allocBPA(now, s)
		*l.bpaAt(s, w) = bpaEntry{
			valid: true, isCMS: true, clID: uint8(i), tagWay: uint8(tw), stamp: l.tick(),
		}
		tag.cmsWay[i] = uint8(w)
		l.stats.Accesses++
	}
	// The tag may have been invalidated by a victim flow that emptied the
	// block (it cannot: CMS entries above point at it), but refresh state.
	tag.valid = true
	tag.blockTag = bt
	tag.cmsCount = uint8(size)
	tag.dirty = dirty
	tag.stamp = l.tick()
	return tw
}

// Prime compresses every approximable block currently in the space,
// updating the CMT and committing reconstructions, without generating
// traffic or timing. It models input data having been written through
// the memory hierarchy before the measured region of the program (the
// paper's benchmarks load their inputs through ordinary stores).
// Blocks that fail to compress stay uncompressed with a clean history.
func (l *LLC) Prime() {
	if !l.cfg.ApproxEnabled {
		return
	}
	l.space.ApproxBlocks(func(blockAddr uint64, dt compress.DataType) {
		if res := l.compressInPlace(blockAddr, dt); res.OK {
			l.table.Lookup(blockAddr).RecordSuccess(res.SizeLines, res.Method, res.Bias)
		}
	})
}

// Flush drains every dirty line and dirty compressed block to memory
// (used at end of run and by tests; not a hardware operation).
func (l *LLC) Flush(now uint64) {
	// Dirty UCLs drain first: evicting one may recompress its co-located
	// block in place, re-marking that block dirty — the block pass below
	// then writes it out. The reverse order would leave such blocks
	// dirty in the LLC.
	for s := 0; s < l.sets; s++ {
		for w := 0; w < l.cfg.Ways; w++ {
			e := &l.bpa[s*l.cfg.Ways+w]
			if e.valid && !e.isCMS && e.dirty {
				l.evictBPAEntry(now, s, w)
			}
		}
	}
	for ti := 0; ti < l.sets; ti++ {
		for w := 0; w < l.cfg.Ways; w++ {
			t := &l.tags[ti*l.cfg.Ways+w]
			if t.valid && t.cmsCount > 0 && t.dirty {
				l.evictCompressedBlock(now, uint64(ti), uint8(w))
			}
		}
	}
}
