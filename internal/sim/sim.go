// Package sim wires the full simulated system together (paper §4.1,
// Table 1): an interval-model core with private L1/L2 caches, one of five
// last-level-cache/memory designs (Baseline, ZeroAVR, AVR, Truncate,
// Doppelgänger), and the DDR4 timing model — all over a single simulated
// address space that workloads compute on, so approximation errors
// propagate into application output exactly as in the paper's
// "we actually update the values of the memory contents" methodology.
//
// The paper's 8-core CMP runs SPMD workloads. One core model (tile: a
// core, its private L1/L2 and the access path into the LLC) serves both
// machines: a System runs it once, as one symmetric core slice with 1/8
// of the shared LLC and 1/4 of the DRAM channel bandwidth (2 channels / 8
// cores), which preserves every per-core capacity and bandwidth ratio of
// Table 1; a Multi runs it once per core over one shared LLC and DRAM.
package sim

import (
	"fmt"
	"strings"

	"avr/internal/cache"
	"avr/internal/compress"
	"avr/internal/core"
	"avr/internal/cpu"
	"avr/internal/designs/dganger"
	"avr/internal/designs/truncate"
	"avr/internal/dram"
	"avr/internal/energy"
	"avr/internal/lossless"
	"avr/internal/mem"
	"avr/internal/obs"
)

// Design selects the memory-system design under evaluation.
type Design int

// The five design points of the paper's evaluation.
const (
	Baseline Design = iota
	Dganger
	Truncate
	ZeroAVR
	AVR
)

// Designs lists all design points in the paper's figure order.
var Designs = []Design{Baseline, Dganger, Truncate, ZeroAVR, AVR}

// String returns the paper's label for the design.
func (d Design) String() string {
	switch d {
	case Baseline:
		return "baseline"
	case Dganger:
		return "dganger"
	case Truncate:
		return "truncate"
	case ZeroAVR:
		return "ZeroAVR"
	case AVR:
		return "AVR"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// DesignByName resolves a design label case-insensitively.
func DesignByName(name string) (Design, error) {
	for _, d := range Designs {
		if strings.EqualFold(d.String(), name) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown design %q", name)
}

// Config describes a full system configuration.
type Config struct {
	Design Design

	// Private caches (per core, full size in the slice model). An L1
	// hit takes CPU.L1HitCycles.
	L1Bytes, L1Ways              int
	L2Bytes, L2Ways, L2HitCycles int

	// LLC slice.
	LLCBytes, LLCWays, LLCHitCycles int

	// DRAM slice.
	DRAMChannels, DRAMSliceDiv int

	// SpaceBytes sizes the simulated physical memory.
	SpaceBytes int

	CPU cpu.Config

	// The AVR LLC's knobs; LosslessLink and LosslessAlgo apply to the
	// Baseline design too.
	core.Knobs

	// Histograms enables the observability histograms (DRAM access
	// latency, and for AVR designs compressed block size, outliers per
	// block and reconstruction error), surfaced in Result.Histograms.
	// Collection is allocation-free and does not perturb simulated
	// timing; disabled (the default) it costs one predicted branch.
	Histograms bool
}

// PresetSlice returns the paper's Table 1 configuration reduced to one
// core slice: 64 kB L1, 256 kB L2, 1 MB LLC slice (8 MB / 8 cores),
// 1/4 DDR4 channel per core (2 channels / 8 cores).
func PresetSlice(d Design) Config {
	return Config{
		Design:       d,
		L1Bytes:      64 << 10,
		L1Ways:       4,
		L2Bytes:      256 << 10,
		L2Ways:       8,
		L2HitCycles:  8,
		LLCBytes:     1 << 20,
		LLCWays:      16,
		LLCHitCycles: 15,
		DRAMChannels: 1,
		DRAMSliceDiv: 4,
		SpaceBytes:   256 << 20,
		CPU:          cpu.DefaultConfig(),
		Knobs:        core.DefaultKnobs(),
	}
}

// PresetSmall scales PresetSlice down 4× (256 kB LLC slice, 16 kB L1,
// 64 kB L2) so the full experiment matrix runs in seconds; workloads
// scale their footprints with the same factor, preserving the
// footprint/LLC ratios.
func PresetSmall(d Design) Config {
	c := PresetSlice(d)
	c.L1Bytes = 16 << 10
	c.L2Bytes = 64 << 10
	c.LLCBytes = 256 << 10
	c.SpaceBytes = 96 << 20
	c.CMTCachePages = 512
	return c
}

// llcDesign is the contract every LLC/memory design implements.
type llcDesign interface {
	Access(now uint64, addr uint64) uint64
	WriteBack(now uint64, addr uint64)
	Flush(now uint64)
}

// System is one simulated core slice plus its memory system. A Multi
// adds its other cores' tiles to the System that holds its shared LLC.
type System struct {
	Cfg   Config
	Space *mem.Space
	Core  *cpu.Core // tile 0's core
	Dram  *dram.DRAM

	// Epoch recorder (SetRecorder): when attached, the hierarchy captures
	// a counter snapshot into it every rec.Every() demand accesses — the
	// hook behind avrsim trace's time series. rec == nil (the default)
	// costs one predicted branch per access.
	rec         *obs.Recorder
	recEvery    uint64
	recLeft     uint64 // accesses until the next snapshot
	accessCount uint64

	// Observability histograms (Cfg.Histograms); all nil when disabled.
	histDramLat   *obs.Histogram
	histBlockSize *obs.Histogram
	histOutliers  *obs.Histogram
	histReconErr  *obs.Histogram

	t     tile    // the slice's core: tile 0
	tiles []*tile // every core, &t first
	llc   llcDesign

	flushBuf []uint64 // reused victim-address scratch for Flush

	avr   *core.LLC     // non-nil for AVR / ZeroAVR
	trunc *truncate.LLC // non-nil for Truncate
	dg    *dganger.LLC  // non-nil for Doppelgänger
	base  *baselineLLC  // non-nil for Baseline
}

// New builds a system from the configuration.
func New(cfg Config) *System {
	s := &System{
		Cfg:   cfg,
		Space: mem.NewSpace(cfg.SpaceBytes),
		Dram:  dram.New(dram.DDR4(cfg.DRAMChannels, cfg.DRAMSliceDiv)),
	}
	switch cfg.Design {
	case Baseline:
		s.base = newBaselineLLC(cfg.LLCBytes, cfg.LLCWays, cfg.LLCHitCycles, s.Space, s.Dram)
		s.base.lossless = cfg.LosslessLink
		s.base.algo = cfg.LosslessAlgo
		s.llc = s.base
	case Truncate:
		s.trunc = truncate.New(cfg.LLCBytes, cfg.LLCWays, cfg.LLCHitCycles, s.Space, s.Dram)
		s.llc = s.trunc
	case Dganger:
		s.dg = dganger.New(dganger.Config{
			CapacityBytes: cfg.LLCBytes,
			Ways:          cfg.LLCWays,
			HitCycles:     cfg.LLCHitCycles,
		}, s.Space, s.Dram)
		s.llc = s.dg
	case ZeroAVR, AVR:
		acfg := core.DefaultConfig(cfg.LLCBytes)
		acfg.Ways = cfg.LLCWays
		acfg.HitCycles = cfg.LLCHitCycles
		acfg.Knobs = cfg.Knobs
		acfg.ApproxEnabled = cfg.Design == AVR
		s.avr = core.New(acfg, s.Space, s.Dram)
		s.llc = s.avr
	default:
		panic(fmt.Sprintf("sim: unknown design %v", cfg.Design))
	}
	s.t = newTile(cfg, s.llc)
	s.tiles = []*tile{&s.t}
	s.Core = s.t.core
	if cfg.Histograms {
		s.histDramLat = obs.DRAMLatencyHistogram()
		s.Dram.SetLatencyHistogram(s.histDramLat)
		if s.avr != nil {
			s.histBlockSize = obs.BlockSizeHistogram()
			s.histOutliers = obs.OutlierHistogram()
			s.histReconErr = obs.ReconErrorHistogram()
			s.avr.SetHistograms(s.histBlockSize, s.histOutliers, s.histReconErr)
		}
	}
	return s
}

// SetRecorder attaches an epoch recorder: every rec.Every() demand
// accesses (and once more at Finish, for the partial tail) the system
// snapshots its cumulative counters into it. A nil recorder — or one
// with interval 0 — disables recording.
func (s *System) SetRecorder(rec *obs.Recorder) {
	s.rec = rec
	s.recEvery = rec.Every()
	if s.recEvery == 0 {
		s.rec, s.t.rec = nil, nil
		return
	}
	s.t.rec = s
	s.recLeft = s.recEvery - s.accessCount%s.recEvery
}

// Counters snapshots the cumulative hot counters of the run so far (the
// epoch time-series feed).
func (s *System) Counters() obs.Counters {
	ds := s.Dram.Stats()
	c := obs.Counters{
		Accesses:        s.accessCount,
		Cycles:          s.Core.Now(),
		Instructions:    s.Core.Instructions(),
		DRAMReads:       ds.Reads,
		DRAMWrites:      ds.Writes,
		DRAMReadBytes:   ds.BytesRead,
		DRAMWriteBytes:  ds.BytesWritten,
		DRAMApproxBytes: ds.ApproxBytes,
	}
	_, misses, _, comp, decomp := s.llcActivity()
	c.LLCMisses = misses
	c.Compresses = comp
	c.Decompresses = decomp
	if s.avr != nil {
		st := s.avr.Stats()
		c.Outliers = st.Outliers
		c.CompFromLines = st.CompressedFromLines
		c.CompToLines = st.CompressedToLines
		c.CMTBytes = s.avr.CMT().Stats().TrafficBytes
	}
	return c
}

// Compute accounts n non-memory instructions.
func (s *System) Compute(n uint64) { s.t.core.Compute(n) }

// ID returns 0: a System is core 0 of 1, so an SPMD kernel written for a
// Multi's cores runs whole on it.
func (s *System) ID() int { return 0 }

// N returns 1, the System's core count.
func (s *System) N() int { return 1 }

// Barrier does nothing: one core has nobody to wait for, and its private
// caches stay warm (a one-core Multi's Barrier flushes them).
func (s *System) Barrier() {}

// Prime models the benchmark's input data having been written through
// the memory hierarchy before the measured region of the program: under
// AVR the approximable blocks start compressed in memory, under Truncate
// they start truncated. Call it after the workload's Setup. It is a
// no-op for Baseline, ZeroAVR and Doppelgänger.
func (s *System) Prime() {
	switch {
	case s.avr != nil:
		s.avr.Prime()
	case s.trunc != nil:
		s.trunc.Prime()
	}
}

// tile is one core's private side of the CMP: its interval-model core,
// private L1 and L2, and the demand-access path through them into the
// LLC the core misses into. A System runs one tile; a Multi runs one per
// core, its core 0 being the System's own.
type tile struct {
	core         *cpu.Core
	l1, l2       *cache.Cache
	llc          llcDesign
	l1Hit, l2Hit uint64

	// rec is the System whose epoch recorder this tile's accesses tick
	// (SetRecorder); nil when none is attached.
	rec *System
}

func newTile(cfg Config, llc llcDesign) tile {
	return tile{
		core:  cpu.New(cfg.CPU),
		l1:    cache.New(cfg.L1Bytes, cfg.L1Ways, 64),
		l2:    cache.New(cfg.L2Bytes, cfg.L2Ways, 64),
		llc:   llc,
		l1Hit: uint64(cfg.CPU.L1HitCycles),
		l2Hit: uint64(cfg.L2HitCycles),
	}
}

// access runs one demand access through the hierarchy.
func (t *tile) access(addr uint64, write bool) {
	if s := t.rec; s != nil {
		s.accessCount++
		if s.recLeft--; s.recLeft == 0 {
			s.recLeft = s.recEvery
			s.rec.Record(s.Counters())
		}
	}
	line := addr &^ 63
	if t.l1.Access(line, write) {
		if write {
			t.core.OnStore()
		} else {
			t.core.OnLoad(t.l1Hit)
		}
		return
	}
	now := t.core.Now()
	lat := t.l2Hit
	if !t.l2.Access(line, false) {
		lat += t.llc.Access(now, line)
		if v := t.l2.Allocate(line, false); v.Valid && v.Dirty {
			t.llc.WriteBack(now, v.Addr)
		}
	}
	if v := t.l1.Allocate(line, write); v.Valid && v.Dirty {
		t.fillL2Dirty(now, v.Addr)
	}
	if write {
		t.core.OnStore()
	} else {
		t.core.OnLoad(lat)
	}
}

// fillL2Dirty sinks a dirty L1 victim into the L2 (write-allocate).
func (t *tile) fillL2Dirty(now uint64, addr uint64) {
	if t.l2.Access(addr, true) {
		return
	}
	if v := t.l2.Allocate(addr, true); v.Valid && v.Dirty {
		t.llc.WriteBack(now, v.Addr)
	}
}

// drain writes the private caches' dirty lines back at the core's clock,
// L1 into L2 and L2 into the LLC, leaving them resident and clean. buf
// is victim-address scratch, handed back for reuse.
func (t *tile) drain(buf []uint64) []uint64 {
	now := t.core.Now()
	l1d := buf[:0]
	t.l1.DirtyLines(func(a uint64) { l1d = append(l1d, a) })
	for _, a := range l1d {
		t.fillL2Dirty(now, a)
		t.l1.MarkClean(a)
	}
	l2d := l1d[:0]
	t.l2.DirtyLines(func(a uint64) { l2d = append(l2d, a) })
	for _, a := range l2d {
		t.llc.WriteBack(now, a)
		t.l2.MarkClean(a)
	}
	return l2d[:0]
}

// LoadF32 performs a timed load of a float value.
func (s *System) LoadF32(addr uint64) float32 {
	s.t.access(addr, false)
	return s.Space.LoadF32(addr)
}

// StoreF32 performs a timed store of a float value.
func (s *System) StoreF32(addr uint64, v float32) {
	s.t.access(addr, true)
	s.Space.StoreF32(addr, v)
}

// Load32 performs a timed load of a raw 32-bit value.
func (s *System) Load32(addr uint64) uint32 {
	s.t.access(addr, false)
	return s.Space.Load32(addr)
}

// Store32 performs a timed store of a raw 32-bit value.
func (s *System) Store32(addr uint64, v uint32) {
	s.t.access(addr, true)
	s.Space.Store32(addr, v)
}

// Flush drains the cache hierarchy to memory (end of run): every core's
// private caches at its own clock, then the LLC at the slowest core's.
// Lines stay resident, so a run may go on after it.
func (s *System) Flush() {
	var last uint64
	for _, t := range s.tiles {
		s.flushBuf = t.drain(s.flushBuf)
		last = max(last, t.core.Now())
	}
	s.llc.Flush(last)
}

// baselineLLC is the unmodified LLC: a plain set-associative cache in
// front of DRAM.
type baselineLLC struct {
	c         *cache.Cache
	space     *mem.Space
	dramCtrl  *dram.DRAM
	hitCycles int
	lossless  bool
	algo      lossless.Algorithm
	requests  uint64
	misses    uint64
	accesses  uint64
	flushBuf  []uint64 // reused victim-address scratch for Flush
}

func newBaselineLLC(capacity, ways, hitCycles int, space *mem.Space, d *dram.DRAM) *baselineLLC {
	return &baselineLLC{
		c:         cache.New(capacity, ways, 64),
		space:     space,
		dramCtrl:  d,
		hitCycles: hitCycles,
	}
}

func (b *baselineLLC) Access(now uint64, addr uint64) uint64 {
	b.requests++
	b.accesses++
	if b.c.Access(addr, false) {
		return uint64(b.hitCycles)
	}
	b.misses++
	approx := b.space.Info(addr).Approx
	done := b.dramCtrl.AccessBytes(now, addr, b.linkBytes(addr), false, approx)
	if v := b.c.Allocate(addr, false); v.Valid && v.Dirty {
		b.dramCtrl.AccessBytes(now, v.Addr, b.linkBytes(v.Addr), true, b.space.Info(v.Addr).Approx)
	}
	return done - now + uint64(b.hitCycles)
}

func (b *baselineLLC) WriteBack(now uint64, addr uint64) {
	b.accesses++
	if b.c.Access(addr, true) {
		return
	}
	// Write-allocate: a writeback miss fills the line from memory before
	// the dirty data merges into it, so the fill read is charged like any
	// other miss (it was previously omitted, undercounting baseline read
	// traffic relative to the Access path).
	b.dramCtrl.AccessBytes(now, addr, b.linkBytes(addr), false, b.space.Info(addr).Approx)
	if v := b.c.Allocate(addr, true); v.Valid && v.Dirty {
		b.dramCtrl.AccessBytes(now, v.Addr, b.linkBytes(v.Addr), true, b.space.Info(v.Addr).Approx)
	}
}

func (b *baselineLLC) Flush(now uint64) {
	dirty := b.flushBuf[:0]
	b.c.DirtyLines(func(a uint64) { dirty = append(dirty, a) })
	for _, a := range dirty {
		b.dramCtrl.AccessBytes(now, a, b.linkBytes(a), true, b.space.Info(a).Approx)
		b.c.MarkClean(a)
	}
	b.flushBuf = dirty[:0]
}

// linkBytes is the memory-link transfer size of a line, BDI-compressed
// when the lossless link layer is enabled.
func (b *baselineLLC) linkBytes(addr uint64) int {
	if !b.lossless {
		return 64
	}
	return lossless.LinkBytes(b.algo, b.space.Line(addr))
}

// Result gathers every metric the evaluation section reports.
type Result struct {
	Design       Design
	Benchmark    string
	Cycles       uint64
	Instructions uint64
	IPC          float64

	Energy energy.Breakdown
	DRAM   dram.Stats

	// CMTTrafficBytes is metadata traffic (AVR designs only), reported
	// separately and added to traffic totals.
	CMTTrafficBytes uint64

	L1, L2      cache.Stats
	LLCRequests uint64
	LLCMisses   uint64
	AMAT        float64
	MPKI        float64

	// AVRStats carries the Fig. 14/15 breakdowns (AVR designs only).
	AVRStats *core.Stats
	// DgDedups counts Doppelgänger dedup events.
	DgDedups uint64

	// CompressionRatio is original/stored size over all approx blocks
	// touched by compression (AVR only; 1.0 otherwise).
	CompressionRatio float64
	// FootprintFraction is the total memory footprint relative to the
	// uncompressed baseline (Table 4's "Mem. Footprint").
	FootprintFraction float64

	// OutputError is filled in by the experiment harness.
	OutputError float64

	// Histograms carries the observability distributions when
	// Config.Histograms is enabled: DRAM access latency for every
	// design, plus compressed block size, outliers per block and
	// reconstruction error for AVR designs. nil when disabled.
	Histograms []obs.Summary `json:",omitempty"`
}

// Finish flushes the hierarchy and collects all statistics over every
// core: the slowest clock, summed instructions, loads and private-cache
// accesses, and core 0's L1/L2 counters.
func (s *System) Finish(benchmark string) Result {
	s.Flush()
	r := Result{
		Design:    s.Cfg.Design,
		Benchmark: benchmark,
		DRAM:      s.Dram.Stats(),
		L1:        s.t.l1.Stats(),
		L2:        s.t.l2.Stats(),
	}
	counts := energy.Counts{Cores: len(s.tiles)}
	var reads, latSum uint64
	for _, t := range s.tiles {
		r.Cycles = max(r.Cycles, t.core.Now())
		r.Instructions += t.core.Instructions()
		reads += t.core.MemReads()
		latSum += t.core.LoadLatencySum()
		counts.L1Accesses += t.l1.Stats().Accesses
		counts.L2Accesses += t.l2.Stats().Accesses
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	if reads > 0 {
		r.AMAT = float64(latSum) / float64(reads)
	}
	// MPKI is computed below, after llcActivity() fills r.LLCMisses.

	counts.Instructions = r.Instructions
	counts.Cycles = r.Cycles
	counts.DRAMActs = r.DRAM.Activations
	counts.DRAMReads = r.DRAM.Reads
	counts.DRAMWrites = r.DRAM.Writes

	r.CompressionRatio = 1
	r.FootprintFraction = 1

	requests, misses, llcAcc, comp, decomp := s.llcActivity()
	r.LLCRequests = requests
	r.LLCMisses = misses
	counts.LLCAccesses = llcAcc
	counts.Compresses = comp
	counts.Decompresses = decomp
	switch s.Cfg.Design {
	case Dganger:
		r.DgDedups = s.dg.Stats().Dedups
	case ZeroAVR, AVR:
		st := s.avr.Stats()
		r.AVRStats = &st
		r.CMTTrafficBytes = s.avr.CMT().Stats().TrafficBytes
		r.CompressionRatio, r.FootprintFraction = s.footprint()
	}
	if r.Instructions > 0 {
		r.MPKI = float64(r.LLCMisses) / float64(r.Instructions) * 1000
	}
	r.Energy = energy.Default32nm().Compute(counts)
	if s.Cfg.Histograms {
		r.Histograms = append(r.Histograms, s.histDramLat.Summary())
		if s.avr != nil {
			r.Histograms = append(r.Histograms,
				s.histBlockSize.Summary(), s.histOutliers.Summary(), s.histReconErr.Summary())
		}
	}
	// The final (partial) epoch closes after the flush above, so the
	// recorded deltas sum exactly to this Result's totals.
	if s.rec != nil {
		s.rec.Finish(s.Counters())
	}
	return r
}

// llcActivity gathers the design-specific LLC counters: demand requests
// and misses, array accesses (with Doppelgänger's 4× tag array charged
// ~1.5× access energy, matching the paper's reported 1–3% overhead),
// and compressor activity.
func (s *System) llcActivity() (requests, misses, accesses, compresses, decompresses uint64) {
	switch s.Cfg.Design {
	case Baseline:
		return s.base.requests, s.base.misses, s.base.accesses, 0, 0
	case Truncate:
		st := s.trunc.Stats()
		return st.Requests, st.DemandMisses, st.Accesses, 0, 0
	case Dganger:
		st := s.dg.Stats()
		return st.Requests, st.DemandMisses, st.Accesses + st.Accesses/2, 0, 0
	default:
		st := s.avr.Stats()
		return st.Requests, st.DemandMisses, st.Accesses, st.Compresses, st.Decompresses
	}
}

// footprint computes Table 4's metrics from the CMT's final state.
func (s *System) footprint() (ratio float64, fraction float64) {
	approxBytes := s.Space.ApproxBytes()
	totalBytes := s.Space.Footprint()
	if totalBytes == 0 || approxBytes == 0 {
		return 1, 1
	}
	approxBlocks := approxBytes / compress.BlockBytes
	cBlocks, cLines := s.avr.CMT().CompressedBlocks()
	// Stored lines: compressed blocks at their compressed size, the rest
	// uncompressed.
	storedLines := uint64(cLines) + (approxBlocks-uint64(cBlocks))*compress.BlockLines
	if storedLines == 0 {
		return 1, 1
	}
	ratio = float64(approxBlocks*compress.BlockLines) / float64(storedLines)
	storedApproxBytes := storedLines * compress.LineBytes
	fraction = (float64(totalBytes-approxBytes) + float64(storedApproxBytes)) / float64(totalBytes)
	return ratio, fraction
}
