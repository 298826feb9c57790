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
	"sync"

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
	// Run executes the benchmark through the timed memory hierarchy of
	// core c: all of it on a System, core c.ID()'s share of it on a
	// Multi (see ParallelByName).
	Run(c Core)
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

// Core is the one interface a kernel computes through: timed loads and
// stores, non-memory instructions, and the core's place in an SPMD run.
// A *sim.System is core 0 of 1 whose Barrier does nothing, a
// *sim.CoreCtx is one core of a Multi, and rawIO is the untimed warm-up
// before the region of interest (execution fast-forwarded functionally).
type Core interface {
	LoadF32(addr uint64) float32
	StoreF32(addr uint64, v float32)
	Load32(addr uint64) uint32
	Store32(addr uint64, v uint32)
	Compute(n uint64)
	ID() int
	N() int
	Barrier()
}

// staged is the two halves of every Setup. layout allocates the
// dataset's regions and sets the workload's fields; it is cheap and runs
// on every Setup. fill writes the starting values, warm-up included,
// into the space and changes nothing else, so what it writes depends
// only on the benchmark and the scale.
type staged interface {
	Name() string
	layout(s *mem.Space, sc Scale)
	fill(s *mem.Space)
}

// imageKey names one fill.
type imageKey struct {
	bench string
	sc    Scale
}

// images holds, per key, the image of the first fill this process ran on
// a fresh space, computed once however many Setups ask at a time.
var images = struct {
	sync.Mutex
	m map[imageKey]func() *mem.Image
}{m: map[imageKey]func() *mem.Image{}}

// setup is every workload's Setup. On a space nothing was allocated in
// before, the first Setup of a (benchmark, scale) in the process runs
// the layout and the fill and keeps an image of the space; every later
// one sizes its space for the image, runs the layout and copies the
// image in. A space that allocated first, or whose layout is not the
// image's, runs the fill itself.
func setup(w staged, s *mem.Space, sc Scale) {
	if s.Footprint() != 0 {
		w.layout(s, sc)
		w.fill(s)
		return
	}
	k := imageKey{w.Name(), sc}
	filled := false
	images.Lock()
	img, ok := images.m[k]
	if !ok {
		img = sync.OnceValue(func() *mem.Image {
			w.layout(s, sc)
			w.fill(s)
			filled = true
			return s.Image()
		})
		images.m[k] = img
	}
	images.Unlock()
	// The first caller of img, whichever Setup that is, lays out and
	// fills the space of the Setup that made the key's entry.
	im := img()
	if filled {
		return
	}
	s.Reserve(im)
	w.layout(s, sc)
	if !s.LoadImage(im) {
		w.fill(s)
	}
}

// rawIO is the untimed core over the bare address space.
type rawIO struct{ s *mem.Space }

func (r rawIO) LoadF32(a uint64) float32     { return r.s.LoadF32(a) }
func (r rawIO) StoreF32(a uint64, v float32) { r.s.StoreF32(a, v) }
func (r rawIO) Load32(a uint64) uint32       { return r.s.Load32(a) }
func (r rawIO) Store32(a uint64, v uint32)   { r.s.Store32(a, v) }
func (r rawIO) Compute(uint64)               {}
func (r rawIO) ID() int                      { return 0 }
func (r rawIO) N() int                       { return 1 }
func (r rawIO) Barrier()                     {}

// parallel names the benchmarks whose Run divides its work by c.ID()
// and c.N() and meets the other cores at c.Barrier. Every other Run
// does the whole benchmark on whichever core runs it.
var parallel = map[string]bool{"heat": true, "kmeans": true, "bscholes": true}

// ParallelByName finds a benchmark that runs SPMD on a Multi's cores.
func ParallelByName(name string) (Workload, error) {
	w, err := ByName(name)
	if err != nil || parallel[name] {
		return w, err
	}
	return nil, fmt.Errorf("workloads: benchmark %s has no parallel decomposition", name)
}

// shard splits [lo, hi) into n near-equal ranges and returns range id's
// bounds.
func shard(lo, hi, id, n int) (int, int) {
	span := hi - lo
	a := lo + span*id/n
	b := lo + span*(id+1)/n
	return a, b
}

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
