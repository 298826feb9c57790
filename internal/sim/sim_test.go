package sim

import (
	"testing"

	"avr/internal/compress"
	"avr/internal/core"
	"avr/internal/obs"
)

// tinySystem builds a system with an approx region for direct plumbing
// tests.
func tinySystem(t *testing.T, d Design) (*System, uint64) {
	t.Helper()
	cfg := PresetSmall(d)
	cfg.SpaceBytes = 16 << 20
	s := New(cfg)
	base := s.Space.AllocApprox(1<<20, compress.Float32)
	return s, base
}

func TestDesignString(t *testing.T) {
	want := map[Design]string{
		Baseline: "baseline", Dganger: "dganger", Truncate: "truncate",
		ZeroAVR: "ZeroAVR", AVR: "AVR",
	}
	for d, w := range want {
		if d.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), w)
		}
	}
	if Design(42).String() == "" {
		t.Error("unknown design must still print")
	}
}

func TestNewPanicsOnUnknownDesign(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(PresetSmall(Design(9)))
}

func TestAllDesignsConstructAndRun(t *testing.T) {
	for _, d := range Designs {
		s, base := tinySystem(t, d)
		for i := uint64(0); i < 4096; i += 4 {
			s.StoreF32(base+i, float32(i))
		}
		for i := uint64(0); i < 4096; i += 4 {
			s.LoadF32(base + i)
		}
		s.Flush()
		r := s.Finish("tiny")
		if r.Design != d || r.Instructions == 0 {
			t.Errorf("%v: result %+v", d, r)
		}
	}
}

func TestL1FiltersRepeatedAccesses(t *testing.T) {
	s, base := tinySystem(t, Baseline)
	for i := 0; i < 100; i++ {
		s.LoadF32(base)
	}
	if s.base.requests > 1 {
		t.Errorf("LLC saw %d requests for one hot line", s.base.requests)
	}
	if got := s.Core.MemReads(); got != 100 {
		t.Errorf("core reads = %d", got)
	}
}

func TestStoreThenLoadRoundTrip(t *testing.T) {
	s, base := tinySystem(t, Baseline)
	s.StoreF32(base+64, 42.5)
	if got := s.LoadF32(base + 64); got != 42.5 {
		t.Errorf("loaded %v", got)
	}
	s.Store32(base+128, 0xABCD)
	if got := s.Load32(base + 128); got != 0xABCD {
		t.Errorf("loaded %#x", got)
	}
}

func TestWritebackChainReachesDRAM(t *testing.T) {
	s, base := tinySystem(t, Baseline)
	// Dirty far more lines than L1+L2 can hold; dirty writebacks must
	// eventually reach DRAM.
	for i := uint64(0); i < 1<<20; i += 64 {
		s.Store32(base+i, uint32(i))
	}
	s.Flush()
	if s.Dram.Stats().BytesWritten == 0 {
		t.Error("no write traffic despite dirty working set")
	}
}

func TestFlushDrainsEverything(t *testing.T) {
	for _, d := range Designs {
		s, base := tinySystem(t, d)
		for i := uint64(0); i < 64<<10; i += 64 {
			s.Store32(base+i, 7)
		}
		s.Flush()
		w := s.Dram.Stats().BytesWritten
		s.Flush()
		if s.Dram.Stats().BytesWritten != w {
			t.Errorf("%v: second flush wrote more", d)
		}
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	s, _ := tinySystem(t, Baseline)
	s.Compute(4000)
	if s.Core.Now() != 1000 {
		t.Errorf("4000 insts at width 4 = %d cycles", s.Core.Now())
	}
}

func TestPrimeCompressesApproxRegion(t *testing.T) {
	s, base := tinySystem(t, AVR)
	for i := uint64(0); i < 1<<20; i += 4 {
		s.Space.StoreF32(base+i, 5.0)
	}
	s.Prime()
	e := s.AVRLLC().CMT().Lookup(base)
	if !e.Compressed {
		t.Error("prime did not compress a constant region")
	}
	// Reads of primed data fetch compressed lines.
	for i := uint64(0); i < 64<<10; i += 64 {
		s.LoadF32(base + i)
	}
	if s.Dram.Stats().BytesRead >= 64<<10 {
		t.Errorf("read %d bytes for 64 kB of compressed data", s.Dram.Stats().BytesRead)
	}
}

func TestPrimeNoopOnBaseline(t *testing.T) {
	s, base := tinySystem(t, Baseline)
	s.Space.StoreF32(base, 1.2345)
	s.Prime()
	if s.Space.LoadF32(base) != 1.2345 {
		t.Error("baseline prime altered data")
	}
}

func TestPrimeTruncates(t *testing.T) {
	s, base := tinySystem(t, Truncate)
	s.Space.StoreF32(base, 3.14159265)
	s.Prime()
	if s.Space.Load32(base)&0xFFFF != 0 {
		t.Error("truncate prime did not truncate")
	}
}

func TestZeroAVRPreservesBits(t *testing.T) {
	s, base := tinySystem(t, ZeroAVR)
	for i := uint64(0); i < 256<<10; i += 4 {
		s.Space.StoreF32(base+i, float32(i)*0.77)
	}
	s.Prime()
	// Touch everything through the hierarchy, dirtying lines.
	for i := uint64(0); i < 256<<10; i += 64 {
		s.Store32(base+i, s.Load32(base+i)+1)
	}
	s.Flush()
	if got := s.Space.Load32(base); got != 1 {
		t.Errorf("ZeroAVR changed data: %#x", got)
	}
	r := s.Finish("zero")
	if r.AVRStats == nil || r.AVRStats.Compresses != 0 {
		t.Error("ZeroAVR ran the compressor")
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	s, base := tinySystem(t, AVR)
	for i := uint64(0); i < 512<<10; i += 4 {
		s.Space.StoreF32(base+i, 9)
	}
	s.Prime()
	for i := uint64(0); i < 512<<10; i += 64 {
		s.LoadF32(base + i)
	}
	s.Compute(100000)
	r := s.Finish("metrics")
	if r.AMAT <= 0 {
		t.Error("AMAT not computed")
	}
	if r.MPKI <= 0 {
		t.Error("MPKI not computed")
	}
	if r.Energy.Total() <= 0 {
		t.Error("energy not computed")
	}
	if r.CompressionRatio <= 1 {
		t.Errorf("compression ratio = %v", r.CompressionRatio)
	}
	if r.FootprintFraction >= 1 || r.FootprintFraction <= 0 {
		t.Errorf("footprint fraction = %v", r.FootprintFraction)
	}
	if r.IPC <= 0 {
		t.Error("IPC not computed")
	}
}

func TestPresets(t *testing.T) {
	small := PresetSmall(AVR)
	slice := PresetSlice(AVR)
	if small.LLCBytes >= slice.LLCBytes {
		t.Error("small preset must be smaller")
	}
	// Capacity ratios preserved: L2/L1 and LLC/L2.
	if small.L2Bytes/small.L1Bytes != slice.L2Bytes/slice.L1Bytes {
		t.Error("L2/L1 ratio differs between presets")
	}
	if small.LLCBytes/small.L2Bytes != slice.LLCBytes/slice.L2Bytes {
		t.Error("LLC/L2 ratio differs between presets")
	}
}

func TestTruncateHalvesApproxTraffic(t *testing.T) {
	sB, baseB := tinySystem(t, Baseline)
	sT, baseT := tinySystem(t, Truncate)
	if baseB != baseT {
		t.Fatal("allocators diverged")
	}
	for i := uint64(0); i < 1<<20; i += 64 {
		sB.LoadF32(baseB + i)
		sT.LoadF32(baseT + i)
	}
	rb := sB.Dram.Stats().BytesRead
	rt := sT.Dram.Stats().BytesRead
	if rt*2 != rb {
		t.Errorf("truncate read %d vs baseline %d, want exactly half", rt, rb)
	}
}

func TestFinishMPKIConsistentWithLLCMisses(t *testing.T) {
	// Regression: MPKI used to be computed from LLCMisses *before*
	// llcActivity() filled it in (always from 0) and then recomputed —
	// Finish must report MPKI = LLCMisses / Instructions × 1000.
	for _, d := range Designs {
		s, base := tinySystem(t, d)
		for i := uint64(0); i < 512<<10; i += 64 {
			s.LoadF32(base + i)
		}
		s.Compute(10000)
		r := s.Finish("mpki")
		if r.Instructions == 0 {
			t.Fatalf("%v: no instructions", d)
		}
		want := float64(r.LLCMisses) / float64(r.Instructions) * 1000
		if r.MPKI != want {
			t.Errorf("%v: MPKI = %v, want %v (LLCMisses=%d, Instructions=%d)",
				d, r.MPKI, want, r.LLCMisses, r.Instructions)
		}
		if r.LLCMisses > 0 && r.MPKI == 0 {
			t.Errorf("%v: MPKI zero despite %d LLC misses", d, r.LLCMisses)
		}
	}
}

func TestRecorderZeroIntervalNeverSamples(t *testing.T) {
	// Regression (from the Sampler era): a sampling interval of 0 used
	// to divide by zero on the first access; 0 must mean "never sample".
	s, base := tinySystem(t, Baseline)
	s.SetRecorder(obs.NewRecorder(0, 8))
	for i := uint64(0); i < 64; i++ {
		s.LoadF32(base + i*64)
	}
	rec := obs.NewRecorder(16, 8)
	s.SetRecorder(rec)
	for i := uint64(0); i < 64; i++ {
		s.LoadF32(base + i*64)
	}
	if n := len(rec.Epochs()); n != 4 {
		t.Errorf("recorder captured %d epochs over 64 accesses at interval 16, want 4", n)
	}
}

// TestWritebackMissFillRead pins each design's write-allocate policy on
// an LLC writeback miss, for an exact and an approximable line: Baseline
// reads the line from DRAM before the dirty data merges into it; Truncate,
// Doppelgänger, ZeroAVR and AVR allocate it without a fetch. Every
// baseline-normalised traffic figure carries Baseline's extra reads
// (DESIGN.md §3, known deviations), so changing either side is a
// golden-moving decision. A writeback hit costs no DRAM traffic anywhere.
func TestWritebackMissFillRead(t *testing.T) {
	for _, tc := range []struct {
		design Design
		reads  uint64
	}{
		{Baseline, 1}, {Truncate, 0}, {Dganger, 0}, {ZeroAVR, 0}, {AVR, 0},
	} {
		for _, approx := range []bool{false, true} {
			cfg := PresetSmall(tc.design)
			cfg.SpaceBytes = 16 << 20
			s := New(cfg)
			addr := s.Space.Alloc(1<<20, 64)
			if approx {
				addr = s.Space.AllocApprox(1<<20, compress.Float32)
			}

			before := s.Dram.Stats()
			s.llc.WriteBack(0, addr)
			miss := s.Dram.Stats()
			if got := miss.Reads - before.Reads; got != tc.reads || miss.Writes != before.Writes {
				t.Errorf("%v approx=%v: writeback miss read %d lines and wrote %d, want %d and 0",
					tc.design, approx, got, miss.Writes-before.Writes, tc.reads)
			}
			if tc.reads > 0 && miss.BytesRead-before.BytesRead != 64 {
				t.Errorf("%v approx=%v: fill read %d bytes, want 64", tc.design, approx, miss.BytesRead-before.BytesRead)
			}
			s.llc.WriteBack(0, addr)
			if hit := s.Dram.Stats(); hit.Reads != miss.Reads || hit.Writes != miss.Writes {
				t.Errorf("%v approx=%v: writeback hit generated DRAM traffic", tc.design, approx)
			}
		}
	}
}

func TestDgangerDedupCounted(t *testing.T) {
	s, base := tinySystem(t, Dganger)
	for i := uint64(0); i < 1<<20; i += 4 {
		s.Space.StoreF32(base+i, 3)
	}
	for i := uint64(0); i < 1<<20; i += 64 {
		s.LoadF32(base + i)
	}
	r := s.Finish("dg")
	if r.DgDedups == 0 {
		t.Error("identical lines produced no dedups")
	}
}

// AVRLLC returns the AVR LLC when the design has one (AVR/ZeroAVR).
func (s *System) AVRLLC() *core.LLC { return s.avr }
