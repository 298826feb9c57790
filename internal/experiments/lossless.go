package experiments

import (
	"fmt"

	"avr/internal/lossless"
	"avr/internal/sim"
)

// losslessVariant is one point of the lossless-stacking study.
type losslessVariant struct {
	name   string
	design sim.Design
	link   bool
	algo   lossless.Algorithm
}

// losslessBenchmarks and losslessVariants define the study's grid.
var losslessBenchmarks = []string{"wrf", "bscholes", "heat"}

var losslessVariants = []losslessVariant{
	{"baseline", sim.Baseline, false, lossless.BDI},
	{"baseline+BDI", sim.Baseline, true, lossless.BDI},
	{"baseline+FPC", sim.Baseline, true, lossless.FPC},
	{"AVR", sim.AVR, false, lossless.BDI},
	{"AVR+BDI", sim.AVR, true, lossless.BDI},
	{"AVR+FPC", sim.AVR, true, lossless.FPC},
}

// losslessUnit is bench at one point of the study; a variant without
// the link layer is the plain matrix run.
func (r *Runner) losslessUnit(bench string, v losslessVariant) unit {
	if !v.link {
		return r.matrix(bench, v.design)
	}
	cfg := r.Scale.Preset(v.design)
	cfg.LosslessLink = true
	cfg.LosslessAlgo = v.algo
	return unit{key: fmt.Sprintf("%s/%s/link-%v", bench, v.design, v.algo), bench: bench, cfg: cfg}
}

// losslessUnits declares the study's benchmarks × variants grid.
func (r *Runner) losslessUnits() []unit {
	var us []unit
	for _, b := range losslessBenchmarks {
		for _, v := range losslessVariants {
			us = append(us, r.losslessUnit(b, v))
		}
	}
	return us
}

// losslessReport evaluates the §2 claim that lossless compression is
// orthogonal to AVR: BDI or FPC on the memory link for non-approximated
// lines, alone and stacked on AVR. wrf is the interesting case — 85% of
// its traffic is exact data AVR cannot touch; bscholes and heat bound
// the effect from both sides. FPC's integer-oriented patterns do little
// for float-heavy lines, bounding what any lossless scheme can add.
func losslessReport(r *Runner, got results) ([]string, [][]string) {
	header := []string{"benchmark", "variant", "exec", "traffic", "non-approx traffic"}
	var rows [][]string
	for _, b := range losslessBenchmarks {
		base := got.of(r.matrix(b, sim.Baseline))
		baseTotal := float64(base.Result.DRAM.TotalBytes())
		baseNA := float64(base.Result.DRAM.TotalBytes() - base.Result.DRAM.ApproxBytes)
		for _, v := range losslessVariants {
			e := got.of(r.losslessUnit(b, v))
			na := float64(e.Result.DRAM.TotalBytes() - e.Result.DRAM.ApproxBytes)
			naCell := "-"
			if baseNA > 0 {
				naCell = fmt.Sprintf("%.3f", na/baseNA)
			}
			rows = append(rows, []string{
				b, v.name,
				fmt.Sprintf("%.3f", float64(e.Result.Cycles)/float64(base.Result.Cycles)),
				fmt.Sprintf("%.3f", float64(e.Result.DRAM.TotalBytes())/baseTotal),
				naCell,
			})
		}
	}
	return header, rows
}
