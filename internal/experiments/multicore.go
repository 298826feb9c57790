package experiments

import (
	"fmt"

	"avr/internal/sim"
)

// multicoreCounts are the CMP sizes of the scaling experiment.
var multicoreCounts = []int{1, 2, 4, 8}

// SharedCMP derives the shared-resource configuration of the n-core
// runs from a per-slice preset: the LLC and DRAM are no longer sliced
// per core (all cores contend for them, as in the paper's Table 1 CMP).
func SharedCMP(cfg sim.Config) sim.Config {
	cfg.LLCBytes *= 4 // shared capacity instead of a per-core slice
	cfg.DRAMChannels = 2
	cfg.DRAMSliceDiv = 1
	return cfg
}

// multicoreUnit is bench's parallel decomposition on an n-core CMP.
func (r *Runner) multicoreUnit(bench string, d sim.Design, n int) unit {
	return unit{spec{bench: bench, cfg: SharedCMP(r.Scale.Preset(d)), cores: n}, fmt.Sprintf("%s/%s/cores%d", bench, d, n)}
}

// multicoreUnits declares heat on both designs at every CMP size.
func (r *Runner) multicoreUnits() []unit {
	var us []unit
	for _, n := range multicoreCounts {
		us = append(us, r.multicoreUnit("heat", sim.Baseline, n), r.multicoreUnit("heat", sim.AVR, n))
	}
	return us
}

// multicore reports the true N-core simulation (shared LLC and DRAM,
// barrier-flush coherence, deterministic scheduling) on the parallel
// heat decomposition for Baseline vs AVR — the paper's bandwidth-wall
// argument: as cores contend for pins, AVR's traffic reduction buys more
// than it does on one core.
func multicore(r *Runner, got results) ([]string, [][]string) {
	header := []string{"cores", "design", "cycles", "speedup", "traffic-MB", "IPC"}
	var rows [][]string
	for _, n := range multicoreCounts {
		for _, d := range []sim.Design{sim.Baseline, sim.AVR} {
			res := got.of(r.multicoreUnit("heat", d, n)).Result
			one := got.of(r.multicoreUnit("heat", d, 1)).Result
			rows = append(rows, []string{
				fmt.Sprintf("%d", n),
				d.String(),
				fmt.Sprintf("%d", res.Cycles),
				fmt.Sprintf("%.2fx", float64(one.Cycles)/float64(res.Cycles)),
				fmt.Sprintf("%.1f", float64(res.DRAM.TotalBytes())/1e6),
				fmt.Sprintf("%.2f", res.IPC),
			})
		}
	}
	return header, rows
}
