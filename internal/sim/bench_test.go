package sim

import (
	"testing"

	"avr/internal/compress"
	"avr/internal/obs"
)

// End-to-end demand-access benchmarks: one op is one access through
// L1/L2/LLC/DRAM with all accounting. All four are CI-gated at 0
// allocs/op (scripts/bench.sh) — the whole per-access path must stay
// allocation-free in steady state.

// benchSystem builds a warmed PresetSmall system over a 1 MiB approx
// region (4× the LLC slice, so the sweep misses continuously).
func benchSystem(b *testing.B, d Design) (*System, uint64) {
	b.Helper()
	cfg := PresetSmall(d)
	cfg.SpaceBytes = 16 << 20
	s := New(cfg)
	base := s.Space.AllocApprox(1<<20, compress.Float32)
	for i := uint64(0); i < 1<<20; i += 4 {
		s.Space.StoreF32(base+i, 100+float32(i)*0.001)
	}
	s.Prime()
	for i := uint64(0); i < 1<<20; i += 64 {
		s.LoadF32(base + i)
	}
	return s, base
}

// BenchmarkSystemAccess sweeps mixed loads/stores through the Baseline
// hierarchy.
func BenchmarkSystemAccess(b *testing.B) {
	s, base := benchSystem(b, Baseline)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base + uint64(i&((1<<20)-1))&^63
		if i&7 == 0 {
			s.Store32(a, uint32(i))
		} else {
			s.Load32(a)
		}
	}
}

// BenchmarkSystemAccessRecorded is BenchmarkSystemAccess with an epoch
// recorder attached, as every sim_matrix cell runs. A snapshot every 64
// accesses reaches Record even in a 100-iteration run and bounds the
// recorder tick's cost from above.
func BenchmarkSystemAccessRecorded(b *testing.B) {
	s, base := benchSystem(b, Baseline)
	s.SetRecorder(obs.NewRecorder(64, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base + uint64(i&((1<<20)-1))&^63
		if i&7 == 0 {
			s.Store32(a, uint32(i))
		} else {
			s.Load32(a)
		}
	}
}

// BenchmarkSystemAccessAVR sweeps loads of primed (compressed) data
// through the AVR hierarchy: CMT lookups, CMS installs, DBUF and PFE all
// exercised.
func BenchmarkSystemAccessAVR(b *testing.B) {
	s, base := benchSystem(b, AVR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Load32(base + uint64(i&((1<<20)-1))&^63)
	}
}

// BenchmarkSystemAccessAVRWrite adds stores, exercising the dirty-UCL
// eviction flows and the recompressions they run.
func BenchmarkSystemAccessAVRWrite(b *testing.B) {
	s, base := benchSystem(b, AVR)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base + uint64(i&((1<<20)-1))&^63
		if i&7 == 0 {
			s.Store32(a, s.Load32(a)+1)
		} else {
			s.Load32(a)
		}
	}
}
