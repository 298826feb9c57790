package experiments

import (
	"fmt"

	"avr/internal/obs"
	"avr/internal/sim"
)

// histogramUnit is bench under AVR with distribution collection
// enabled. It is keyed apart from the plain matrix run, so enabling
// collection never perturbs — or reuses — the figures' runs.
func (r *Runner) histogramUnit(bench string) unit {
	cfg := r.Scale.Preset(sim.AVR)
	cfg.Histograms = true
	return unit{key: bench + "/AVR/histograms", bench: bench, cfg: cfg}
}

// histogramUnits declares one collecting run per benchmark.
func (r *Runner) histogramUnits() []unit {
	var us []unit
	for _, b := range Benchmarks() {
		us = append(us, r.histogramUnit(b))
	}
	return us
}

// histograms renders the instrumentation appendix: the shape of the DRAM
// latency, compressed block size, outliers-per-block and reconstruction
// error distributions that the headline tables collapse into means.
func histograms(r *Runner, got results) ([]string, [][]string) {
	header := []string{"benchmark", "histogram", "count", "mean", "min", "max", "p50<=", "p99<="}
	var rows [][]string
	for _, b := range Benchmarks() {
		for _, h := range got.of(r.histogramUnit(b)).Result.Histograms {
			rows = append(rows, []string{
				b, h.Name,
				fmt.Sprintf("%d", h.Count),
				fmt.Sprintf("%.4g", h.Mean()),
				fmt.Sprintf("%.4g", h.Min),
				fmt.Sprintf("%.4g", h.Max),
				quantileCell(h, 0.50),
				quantileCell(h, 0.99),
			})
		}
	}
	return header, rows
}

// quantileCell renders the upper bound of the bucket containing the
// q-quantile, or ">max-bucket" when it lands in the overflow.
func quantileCell(h obs.Summary, q float64) string {
	if h.Count == 0 {
		return "-"
	}
	target := uint64(q * float64(h.Count))
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum > target {
			return fmt.Sprintf("%.4g", b.Le)
		}
	}
	if len(h.Buckets) == 0 {
		return "-"
	}
	return fmt.Sprintf(">%.4g", h.Buckets[len(h.Buckets)-1].Le)
}
