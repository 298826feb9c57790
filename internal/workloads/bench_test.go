package workloads

import (
	"testing"

	"avr/internal/mem"
	"avr/internal/sim"
)

// BenchmarkPresetSmallStep measures one full Jacobi sweep of the heat
// workload through a PresetSmall AVR system — the end-to-end
// simulation-speed number scripts/bench.sh tracks (simulated accesses
// per wall-clock second roll up into ns/op here).
func BenchmarkPresetSmallStep(b *testing.B) {
	h := NewHeat()
	sys := sim.New(sim.PresetSmall(sim.AVR))
	h.Setup(sys, ScaleSmall)
	sys.Prime()
	h.iters = 1 // one Run == one grid sweep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Run(sys)
	}
	insts := sys.Core.Instructions()
	b.StopTimer()
	if insts > 0 {
		b.ReportMetric(float64(insts)/float64(b.N), "sim-insts/op")
	}
}

// BenchmarkSetup measures each benchmark's Setup on a fresh space: cold
// runs the fill and keeps its image, as a process's first Setup of the
// benchmark does; hit restores that image, as every later one does.
func BenchmarkSetup(b *testing.B) {
	spaceBytes := sim.PresetSmall(sim.Baseline).SpaceBytes
	for _, w := range All() {
		for _, cold := range []bool{true, false} {
			mode := "hit"
			if cold {
				mode = "cold"
			}
			b.Run(w.Name()+"/"+mode, func(b *testing.B) {
				w.Setup(&sim.System{Space: mem.NewSpace(spaceBytes)}, ScaleSmall)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if cold {
						forget(w.Name(), ScaleSmall)
					}
					sys := &sim.System{Space: mem.NewSpace(spaceBytes)}
					b.StartTimer()
					w.Setup(sys, ScaleSmall)
				}
			})
		}
	}
}
