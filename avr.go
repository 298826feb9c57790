// Package avr is the public facade of the AVR reproduction: Approximate
// Value Reconstruction (Eldstål-Damlin, Trancoso, Sourdis — ICPP 2019),
// an architecture for approximate memory compression.
//
// The package exposes four layers:
//
//   - Codec: the AVR downsampling compressor as a standalone lossy codec
//     for float32/int32 data, with the paper's error-threshold knobs.
//     A Codec is not safe for concurrent use; see the type's doc.
//   - Simulation: the full architectural simulator (interval cores,
//     cache hierarchy, the AVR decoupled LLC, DDR4 timing, energy) and
//     the five memory-system designs of the paper's evaluation.
//   - Experiments: the harness regenerating every table and figure of
//     the paper (see cmd/avrsim, subcommand tables).
//   - Serving: the codec as a network service — cmd/avrd exposes
//     encode/decode over HTTP with pooled codecs, bounded-queue
//     admission and graceful drain (internal/server), and cmd/avrload
//     drives it with verified load.
//
// The heavy lifting lives in internal/ packages; this facade keeps a
// small, stable surface.
package avr

import (
	"fmt"

	"avr/internal/compress"
	"avr/internal/experiments"
	"avr/internal/sim"
	"avr/internal/workloads"
)

// Design identifies a memory-system design point from the paper's
// evaluation.
type Design = sim.Design

// The five design points.
const (
	Baseline     = sim.Baseline
	Doppelganger = sim.Dganger
	Truncate     = sim.Truncate
	ZeroAVR      = sim.ZeroAVR
	AVR          = sim.AVR
)

// Scale selects simulation input scale.
type Scale = workloads.Scale

// Input scales.
const (
	ScaleSmall = workloads.ScaleSmall
	ScaleSlice = workloads.ScaleSlice
)

// Result is the full statistics record of one simulation run.
type Result = sim.Result

// Benchmarks returns the names of the paper's seven benchmarks.
func Benchmarks() []string { return experiments.Benchmarks() }

// RunBenchmark simulates one benchmark on one design at the given scale
// and returns its statistics.
func RunBenchmark(benchmark string, d Design, sc Scale) (Result, error) {
	e, err := experiments.Simulate(benchmark, sc.Preset(d), sc)
	if err != nil {
		return Result{}, err
	}
	return e.Result, nil
}

// MultiResult is the statistics record of a multicore run.
type MultiResult = sim.MultiResult

// RunMulticore simulates one benchmark on an n-core CMP with a shared
// LLC and DRAM (deterministic scheduling, barrier-flush coherence).
// Only benchmarks with a parallel decomposition are supported: heat,
// kmeans and bscholes.
func RunMulticore(benchmark string, d Design, cores int, sc Scale) (MultiResult, error) {
	return experiments.SimulateMulti(benchmark, experiments.SharedCMP(sc.Preset(d)), cores, sc)
}

// OutputError runs a benchmark on the baseline and on design d and
// returns the paper's quality metric: the mean relative error of the
// design's application output against the exact baseline output.
func OutputError(benchmark string, d Design, sc Scale) (float64, error) {
	r := experiments.NewRunner(sc)
	return r.OutputError(benchmark, d)
}

// Experiment regenerates one of the paper's tables or figures by id
// (table3, table4, fig9..fig15, overhead) at the given scale, returning
// the rendered text table and CSV.
func Experiment(id string, sc Scale) (title, text, csv string, err error) {
	r := experiments.NewRunner(sc)
	rep, err := r.ByID(id)
	if err != nil {
		return "", "", "", err
	}
	return rep.Title, rep.Text, rep.CSV, nil
}

// ExperimentIDs lists the regenerable experiments.
func ExperimentIDs() []string { return experiments.IDs() }

// Validate sanity-checks a design value (useful when parsing flags).
func Validate(d Design) error {
	for _, k := range sim.Designs {
		if k == d {
			return nil
		}
	}
	return fmt.Errorf("avr: unknown design %d", int(d))
}

// DefaultThresholds returns the compressor error knobs used throughout
// the experiments (T1 per-value, T2 = T1/2 block average; §3.3).
func DefaultThresholds() (t1, t2 float64) {
	t := compress.DefaultThresholds()
	return t.T1, t.T2
}
