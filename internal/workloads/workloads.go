// Package workloads implements the paper's seven benchmark applications
// (Table 2) as execution-driven kernels: every data access goes through
// the simulated memory hierarchy, and the kernels compute on the values
// the hierarchy returns, so compression error propagates into the
// application output exactly as in the paper's methodology.
//
// Since the original binaries (SPEC lbm/wrf, FLASH orbit, etc.) cannot be
// instrumented here, each kernel is a faithful reimplementation of the
// benchmark's core algorithm with inputs generated to mimic the described
// datasets: a car silhouette for lattice, a sphere for lbm, a topographic
// elevation map for kmeans and geo-ordered weather fields for the wrf
// proxy (see DESIGN.md §3).
package workloads

import (
	"fmt"

	"avr/internal/mem"
	"avr/internal/sim"
)

// Scale selects the input size.
type Scale int

const (
	// ScaleSmall targets the PresetSmall system (footprints a few MiB,
	// several times the 256 kB LLC slice); the full matrix runs in
	// seconds.
	ScaleSmall Scale = iota
	// ScaleSlice targets PresetSlice (Table 1 ratios; footprints
	// 8–24 MiB per core slice as in the paper's Table 2).
	ScaleSlice
)

// String names the scale for logs and run manifests.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleSlice:
		return "slice"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// Preset is the system configuration design d runs at scale s.
func (s Scale) Preset(d sim.Design) sim.Config {
	if s == ScaleSlice {
		return sim.PresetSlice(d)
	}
	return sim.PresetSmall(d)
}

// Workload is one benchmark application.
type Workload interface {
	// Name returns the paper's benchmark name.
	Name() string
	// Setup allocates and initialises the dataset in the system's
	// address space (untimed, modelling input loading).
	Setup(sys *sim.System, sc Scale)
	// Run executes the benchmark through the timed memory hierarchy.
	Run(sys *sim.System)
	// Output returns the application output values for the error metric.
	Output(sys *sim.System) []float64
}

// All returns the seven benchmarks in the paper's table order.
func All() []Workload {
	return []Workload{
		NewHeat(), NewLattice(), NewLBM(), NewOrbit(),
		NewKMeans(), NewBScholes(), NewWRF(),
	}
}

// ByName finds a benchmark by its paper name.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// memIO abstracts the memory interface kernels compute through: the
// timed *sim.System during the measured region, or an untimed raw-space
// accessor during warmup (modelling execution before the region of
// interest, fast-forwarded functionally).
type memIO interface {
	LoadF32(addr uint64) float32
	StoreF32(addr uint64, v float32)
	Load32(addr uint64) uint32
	Store32(addr uint64, v uint32)
	Compute(n uint64)
}

// rawIO is the untimed accessor over the bare address space.
type rawIO struct{ s *mem.Space }

func (r rawIO) LoadF32(a uint64) float32     { return r.s.LoadF32(a) }
func (r rawIO) StoreF32(a uint64, v float32) { r.s.StoreF32(a, v) }
func (r rawIO) Load32(a uint64) uint32       { return r.s.Load32(a) }
func (r rawIO) Store32(a uint64, v uint32)   { r.s.Store32(a, v) }
func (r rawIO) Compute(uint64)               {}

// rng is a small deterministic xorshift generator so datasets are
// reproducible across Go versions.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// norm returns an approximately normal sample (Irwin–Hall of 4).
func (r *rng) norm() float64 {
	return (r.float() + r.float() + r.float() + r.float() - 2) * 1.7320508
}
