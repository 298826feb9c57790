package experiments

import (
	"fmt"

	"avr/internal/compress"
	"avr/internal/sim"
)

// ablationVariant is one AVR configuration with a single mechanism
// changed, for the design-choice ablations DESIGN.md calls out.
type ablationVariant struct {
	name   string
	mutate func(*sim.Config)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"full-AVR", func(*sim.Config) {}},
		{"no-lazy-evict", func(c *sim.Config) { c.LazyEvictions = false }},
		{"no-skip-history", func(c *sim.Config) { c.SkipHistory = false }},
		{"no-PFE", func(c *sim.Config) { c.PFEEnabled = false }},
		{"1D-only", func(c *sim.Config) { c.Variants = compress.Variant1D }},
		{"2D-only", func(c *sim.Config) { c.Variants = compress.Variant2D }},
		{"tight-T1/128", func(c *sim.Config) {
			c.Thresholds = compress.Thresholds{T1: 1.0 / 128, T2: 1.0 / 256}
		}},
		{"loose-T1/8", func(c *sim.Config) {
			c.Thresholds = compress.Thresholds{T1: 1.0 / 8, T2: 1.0 / 16}
		}},
	}
}

// ablationBenchmarks are the workloads the ablations run on: one where
// every AVR mechanism is exercised heavily (heat) and one with mixed
// compressibility (lattice).
var ablationBenchmarks = []string{"heat", "lattice"}

// ablationUnit is bench under the AVR preset with one mechanism changed.
func (r *Runner) ablationUnit(bench string, v ablationVariant) unit {
	cfg := r.Scale.Preset(sim.AVR)
	v.mutate(&cfg)
	return unit{key: bench + "/ablation/" + v.name, bench: bench, cfg: cfg}
}

// ablationUnits declares the variants and the baselines they normalise
// against.
func (r *Runner) ablationUnits() []unit {
	var us []unit
	for _, bench := range ablationBenchmarks {
		us = append(us, r.matrix(bench, sim.Baseline))
		for _, v := range ablationVariants() {
			us = append(us, r.ablationUnit(bench, v))
		}
	}
	return us
}

// ablation reports execution time and traffic normalised to the baseline
// design, plus compression ratio and output error per variant.
func ablation(r *Runner, got results) ([]string, [][]string) {
	header := []string{"benchmark", "variant", "exec", "traffic", "ratio", "error"}
	var rows [][]string
	for _, bench := range ablationBenchmarks {
		base := got.of(r.matrix(bench, sim.Baseline))
		baseTraffic := float64(base.Result.DRAM.TotalBytes())
		for _, v := range ablationVariants() {
			e := got.of(r.ablationUnit(bench, v))
			outErr := MeanRelativeError(base.Output, e.Output)
			rows = append(rows, []string{
				bench, v.name,
				fmt.Sprintf("%.3f", float64(e.Result.Cycles)/float64(base.Result.Cycles)),
				fmt.Sprintf("%.3f", float64(e.Result.DRAM.TotalBytes())/baseTraffic),
				fmt.Sprintf("%.1fx", e.Result.CompressionRatio),
				fmt.Sprintf("%.2f%%", outErr*100),
			})
		}
	}
	return header, rows
}
