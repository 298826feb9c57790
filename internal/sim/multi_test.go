package sim

import (
	"reflect"
	"testing"

	"avr/internal/compress"
)

// multiRig builds an n-core system with one approx region.
func multiRig(t *testing.T, d Design, n int) (*Multi, uint64) {
	t.Helper()
	cfg := PresetSmall(d)
	cfg.SpaceBytes = 32 << 20
	m := NewMulti(cfg, n)
	base := m.Shared().Space.AllocApprox(4<<20, compress.Float32)
	return m, base
}

func TestMultiSingleCoreMatchesShape(t *testing.T) {
	m, base := multiRig(t, Baseline, 1)
	m.Run(func(c *CoreCtx) {
		for i := uint64(0); i < 1<<20; i += 64 {
			c.Store32(base+i, uint32(i))
		}
		for i := uint64(0); i < 1<<20; i += 64 {
			c.Load32(base + i)
		}
	})
	r := m.Finish("single")
	if r.Cycles == 0 || r.Instructions == 0 {
		t.Fatalf("empty run: %+v", r)
	}
	if r.NCores != 1 || len(r.PerCore) != 1 {
		t.Errorf("per-core data wrong: %+v", r)
	}
}

func TestMultiDeterministic(t *testing.T) {
	run := func() MultiResult {
		m, base := multiRig(t, AVR, 4)
		m.Run(func(c *CoreCtx) {
			lo := uint64(c.ID()) << 18
			for i := uint64(0); i < 1<<18; i += 64 {
				c.StoreF32(base+lo+i, float32(i))
			}
			c.Barrier()
			for i := uint64(0); i < 1<<18; i += 64 {
				c.LoadF32(base + lo + i)
			}
		})
		return m.Finish("det")
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/insts",
			a.Cycles, a.Instructions, b.Cycles, b.Instructions)
	}
	if a.Result.DRAM.TotalBytes() != b.Result.DRAM.TotalBytes() {
		t.Error("nondeterministic traffic")
	}
}

func TestMultiCoresShareWork(t *testing.T) {
	// The same total work split over 4 cores must finish in fewer
	// max-cycles than on 1 core (bandwidth permitting).
	work := func(n int) uint64 {
		m, base := multiRig(t, Baseline, n)
		m.Run(func(c *CoreCtx) {
			span := uint64(4<<20) / uint64(c.N())
			lo := uint64(c.ID()) * span
			for i := uint64(0); i < span; i += 64 {
				c.Load32(base + lo + i)
				c.Compute(8)
			}
		})
		return m.Finish("scale").Cycles
	}
	t1, t4 := work(1), work(4)
	if t4 >= t1 {
		t.Errorf("4 cores (%d cycles) not faster than 1 (%d)", t4, t1)
	}
	if t4 < t1/8 {
		t.Errorf("superlinear speedup is suspicious: %d vs %d", t4, t1)
	}
}

func TestMultiBarrierSynchronises(t *testing.T) {
	m, base := multiRig(t, Baseline, 4)
	var after [4]uint64
	m.Run(func(c *CoreCtx) {
		// Core 0 does much more pre-barrier work.
		n := uint64(1 << 12)
		if c.ID() == 0 {
			n = 1 << 16
		}
		for i := uint64(0); i < n; i += 4 {
			c.Store32(base+uint64(c.ID())<<20+i, 1)
		}
		c.Barrier()
		after[c.ID()] = c.Now()
	})
	m.Finish("barrier")
	for id := 1; id < 4; id++ {
		if after[id] < after[0]*99/100 {
			t.Errorf("core %d resumed at %d, before core 0's barrier time %d",
				id, after[id], after[0])
		}
	}
}

func TestMultiBarrierFlushesDirtyData(t *testing.T) {
	m, base := multiRig(t, Baseline, 2)
	m.Run(func(c *CoreCtx) {
		if c.ID() == 0 {
			c.Store32(base, 42)
		}
		c.Barrier()
		// Nothing else: the dirty line must reach memory via the barrier
		// flush + final Finish.
	})
	m.Finish("flush")
	if got := m.Shared().Space.Load32(base); got != 42 {
		t.Errorf("barrier-flushed store lost: %d", got)
	}
	if m.Shared().Dram.Stats().BytesWritten == 0 {
		t.Error("no write traffic from barrier flush")
	}
}

func TestMultiAVRCompressesSharedData(t *testing.T) {
	cfg := PresetSmall(AVR)
	cfg.SpaceBytes = 32 << 20
	m := NewMulti(cfg, 4)
	base := m.Shared().Space.AllocApprox(2<<20, compress.Float32)
	m.Run(func(c *CoreCtx) {
		span := uint64(2<<20) / uint64(c.N())
		lo := uint64(c.ID()) * span
		for i := uint64(0); i < span; i += 4 {
			c.StoreF32(base+lo+i, 42)
		}
		c.Barrier()
	})
	r := m.Finish("avr")
	if r.Result.CompressionRatio <= 4 {
		t.Errorf("constant data ratio = %v", r.Result.CompressionRatio)
	}
	if r.Result.AVRStats == nil || r.Result.AVRStats.Compresses == 0 {
		t.Error("no compression activity")
	}
}

func TestNewMultiPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMulti(PresetSmall(Baseline), 0)
}

// TestMultiOneCoreMatchesSystem pins what lets the CMP reuse the slice's
// core model: a one-core Multi running a barrier-free body is the
// single-core System, statistic for statistic.
func TestMultiOneCoreMatchesSystem(t *testing.T) {
	const region = 1 << 20 // 4× the PresetSmall LLC
	type timed interface {
		LoadF32(addr uint64) float32
		StoreF32(addr uint64, v float32)
		Load32(addr uint64) uint32
		Store32(addr uint64, v uint32)
		Compute(n uint64)
	}
	body := func(c timed, base uint64) {
		for i := uint64(0); i < region; i += 16 {
			c.StoreF32(base+i, c.LoadF32(base+i)*1.5)
			c.Compute(3)
		}
		for i := uint64(0); i < region; i += 64 {
			c.Store32(base+region+i, c.Load32(base+i)^uint32(i))
		}
	}
	for _, d := range Designs {
		t.Run(d.String(), func(t *testing.T) {
			cfg := PresetSmall(d)
			cfg.SpaceBytes = 16 << 20
			setup := func(s *System) uint64 {
				base := s.Space.AllocApprox(2*region, compress.Float32)
				for i := uint64(0); i < 2*region; i += 4 {
					s.Space.StoreF32(base+i, 100+float32(i)*0.001)
				}
				return base
			}

			s := New(cfg)
			base := setup(s)
			s.Prime()
			body(s, base)
			want := s.Finish("one")
			if want.DRAM.TotalBytes() == 0 || want.L2.Misses == 0 {
				t.Fatalf("body never left the private caches: %+v", want)
			}

			m := NewMulti(cfg, 1)
			mbase := setup(m.Shared())
			m.Prime()
			m.Run(func(c *CoreCtx) { body(c, mbase) })
			got := m.Finish("one")

			if !reflect.DeepEqual(got.Result, want) {
				t.Errorf("one-core Multi differs from System:\n got %+v\nwant %+v", got.Result, want)
			}
			if len(got.PerCore) != 1 || got.PerCore[0] != want.Cycles {
				t.Errorf("PerCore = %v, want [%d]", got.PerCore, want.Cycles)
			}
			if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
				t.Errorf("MultiResult copies %d/%d, want %d/%d",
					got.Cycles, got.Instructions, want.Cycles, want.Instructions)
			}
		})
	}
}
