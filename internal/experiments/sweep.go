package experiments

import (
	"fmt"

	"avr/internal/sim"
)

// sweepCapacities are the LLC slice sizes of the capacity sensitivity
// study, around the preset's default.
var sweepCapacities = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

// llcUnit is bench on design d at an explicit LLC capacity.
func (r *Runner) llcUnit(bench string, d sim.Design, capBytes int) unit {
	cfg := r.Scale.Preset(d)
	cfg.LLCBytes = capBytes
	return unit{spec{bench: bench, cfg: cfg}, fmt.Sprintf("%s/%s/llc%d", bench, d, capBytes)}
}

// llcSweepUnits declares heat on both designs at every capacity.
func (r *Runner) llcSweepUnits() []unit {
	var us []unit
	for _, capBytes := range sweepCapacities {
		us = append(us, r.llcUnit("heat", sim.Baseline, capBytes), r.llcUnit("heat", sim.AVR, capBytes))
	}
	return us
}

// llcSweep reports AVR's normalised execution time and traffic on heat
// at each LLC capacity — the sensitivity the paper's fixed 8 MB
// configuration cannot show. AVR's advantage shrinks as the LLC
// approaches the working set (the baseline stops missing), and grows
// when capacity is scarce.
func llcSweep(r *Runner, got results) ([]string, [][]string) {
	header := []string{"LLC", "exec", "traffic", "AMAT", "ratio"}
	var rows [][]string
	for _, capBytes := range sweepCapacities {
		base := got.of(r.llcUnit("heat", sim.Baseline, capBytes))
		a := got.of(r.llcUnit("heat", sim.AVR, capBytes))
		rows = append(rows, []string{
			fmt.Sprintf("%dkB", capBytes>>10),
			fmt.Sprintf("%.3f", float64(a.Result.Cycles)/float64(base.Result.Cycles)),
			fmt.Sprintf("%.3f", float64(a.Result.DRAM.TotalBytes())/float64(base.Result.DRAM.TotalBytes())),
			fmt.Sprintf("%.3f", a.Result.AMAT/base.Result.AMAT),
			fmt.Sprintf("%.1fx", a.Result.CompressionRatio),
		})
	}
	return header, rows
}
