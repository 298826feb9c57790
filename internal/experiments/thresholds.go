package experiments

import (
	"fmt"

	"avr/internal/compress"
	"avr/internal/sim"
)

// thresholdPoints are the T1 settings of the knob sweep (T2 = T1/2
// throughout, as in the paper's experiments).
var thresholdPoints = []float64{1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256}

// thresholdBenchmarks cover the three compressibility regimes.
var thresholdBenchmarks = []string{"heat", "lattice", "kmeans"}

// thresholdUnit is bench under AVR with explicit thresholds.
func (r *Runner) thresholdUnit(bench string, t1 float64) unit {
	cfg := r.Scale.Preset(sim.AVR)
	cfg.Thresholds = compress.Thresholds{T1: t1, T2: t1 / 2}
	return unit{key: fmt.Sprintf("%s/AVR/t1=%g", bench, t1), bench: bench, cfg: cfg}
}

// thresholdUnits declares the sweep points and the baselines they
// normalise against.
func (r *Runner) thresholdUnits() []unit {
	var us []unit
	for _, bench := range thresholdBenchmarks {
		us = append(us, r.matrix(bench, sim.Baseline))
		for _, t1 := range thresholdPoints {
			us = append(us, r.thresholdUnit(bench, t1))
		}
	}
	return us
}

// thresholds renders the error-threshold knob (§3.3: "error thresholds
// are exposed as a tunable knob"): output error, compression ratio and
// traffic as T1 sweeps over two orders of magnitude. This is the
// quality/performance trade-off curve behind Table 3.
func thresholds(r *Runner, got results) ([]string, [][]string) {
	header := []string{"benchmark", "T1", "error", "ratio", "traffic", "exec"}
	var rows [][]string
	for _, bench := range thresholdBenchmarks {
		base := got.of(r.matrix(bench, sim.Baseline))
		for _, t1 := range thresholdPoints {
			e := got.of(r.thresholdUnit(bench, t1))
			rows = append(rows, []string{
				bench,
				fmt.Sprintf("1/%.0f", 1/t1),
				fmt.Sprintf("%.3f%%", 100*MeanRelativeError(base.Output, e.Output)),
				fmt.Sprintf("%.1fx", e.Result.CompressionRatio),
				fmt.Sprintf("%.3f", float64(e.Result.DRAM.TotalBytes())/float64(base.Result.DRAM.TotalBytes())),
				fmt.Sprintf("%.3f", float64(e.Result.Cycles)/float64(base.Result.Cycles)),
			})
		}
	}
	return header, rows
}
