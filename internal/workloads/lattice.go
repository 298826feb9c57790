package workloads

import (
	"avr/internal/compress"
	"avr/internal/mem"
	"avr/internal/sim"
)

// Lattice is the 2D Lattice-Boltzmann benchmark (Ansumali et al.,
// "Minimal entropic kinetic models for hydrodynamics"): D2Q9 BGK
// simulation of air flow over a solid object. Following the paper, the
// input obstacle is a silhouette of a car, and the particle distributions
// (P) and macroscopic fields (M) are approximable.
type Lattice struct {
	n     int
	iters int
	f     [9]uint64 // distribution planes, current (float32 n×n each)
	g     [9]uint64 // distribution planes, next
	mask  uint64    // obstacle mask (uint32 n×n, exact)
}

// D2Q9 velocity set and weights.
var (
	d2ex = [9]int{0, 1, 0, -1, 0, 1, -1, -1, 1}
	d2ey = [9]int{0, 0, 1, 0, -1, 1, 1, -1, -1}
	d2w  = [9]float32{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
	// d2opp[k] is the bounce-back (opposite) direction of k.
	d2opp = [9]int{0, 3, 4, 1, 2, 7, 8, 5, 6}
)

const latticeOmega = 1.2 // BGK relaxation parameter

// latticeInflow is the inlet velocity.
const latticeInflow = 0.08

// NewLattice creates the benchmark.
func NewLattice() *Lattice { return &Lattice{} }

// Name implements Workload.
func (l *Lattice) Name() string { return "lattice" }

func (l *Lattice) idx(i, j int) uint64 { return uint64(i*l.n+j) * 4 }

// carMask reports whether cell (i, j) is inside the car silhouette: a
// body box, a cabin wedge and two wheels, sitting in the lower middle of
// the domain.
func (l *Lattice) carMask(i, j int) bool {
	n := float64(l.n)
	x, y := float64(j)/n, float64(i)/n // x along flow, y up from bottom
	y = 1 - y
	// Body.
	if x > 0.35 && x < 0.75 && y > 0.28 && y < 0.40 {
		return true
	}
	// Cabin (trapezoid).
	if y >= 0.40 && y < 0.52 {
		lo := 0.42 + (y-0.40)*0.5
		hi := 0.68 - (y-0.40)*0.5
		if x > lo && x < hi {
			return true
		}
	}
	// Wheels.
	for _, cx := range []float64{0.43, 0.67} {
		dx, dy := x-cx, y-0.26
		if dx*dx+dy*dy < 0.04*0.04 {
			return true
		}
	}
	return false
}

// Setup implements Workload.
func (l *Lattice) Setup(sys *sim.System, sc Scale) { setup(l, sys.Space, sc) }

func (l *Lattice) layout(s *mem.Space, sc Scale) {
	switch sc {
	case ScaleSmall:
		l.n, l.iters = 128, 10 // ~1.2 MiB of distributions
	default:
		l.n, l.iters = 256, 10 // ~4.7 MiB
	}
	planeBytes := uint64(l.n*l.n) * 4
	// Staggered plane bases: see the matching comment in lbm.go.
	for k := 0; k < 9; k++ {
		l.f[k] = s.AllocApprox(planeBytes+4096, compress.Float32) + uint64(k%15+1)*64
		l.g[k] = s.AllocApprox(planeBytes+4096, compress.Float32) + uint64((k+7)%15+1)*64
	}
	l.mask = s.Alloc(planeBytes, 64)
}

// fill writes a uniform rightward flow initialised to equilibrium, with
// the car silhouette as a bounce-back obstacle, and develops it.
func (l *Lattice) fill(s *mem.Space) {
	const ux0, rho0 = latticeInflow, 1.0
	for i := 0; i < l.n; i++ {
		for j := 0; j < l.n; j++ {
			m := uint32(0)
			if l.carMask(i, j) {
				m = 1
			}
			s.Store32(l.mask+l.idx(i, j), m)
			for k := 0; k < 9; k++ {
				feq := equilibriumD2(k, rho0, ux0, 0)
				s.StoreF32(l.f[k]+l.idx(i, j), feq)
				s.StoreF32(l.g[k]+l.idx(i, j), feq)
			}
		}
	}
	// Fast-forward the flow functionally (untimed) to a developed state
	// before the measured region. Each sweep swaps the planes, and a
	// Setup that restores the fill's image does not run it, so the
	// warm-up must end in the layout's order.
	f := l.f
	l.sweep(rawIO{s}, l.n/2)
	if l.f != f {
		panic("workloads: lattice warm-up must run an even number of sweeps")
	}
}

// equilibriumD2 is the standard D2Q9 BGK equilibrium distribution.
func equilibriumD2(k int, rho, ux, uy float32) float32 {
	eu := float32(d2ex[k])*ux + float32(d2ey[k])*uy
	u2 := ux*ux + uy*uy
	return d2w[k] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*u2)
}

// Run implements Workload: the measured region, after Setup's warm-up
// developed the flow.
func (l *Lattice) Run(sys Core) { l.sweep(sys, l.iters) }

// sweep runs iters collide-and-stream sweeps (push scheme) with
// bounce-back at the obstacle and periodic boundaries.
func (l *Lattice) sweep(sys Core, iters int) {
	n := l.n
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				at := l.idx(i, j)
				if j == 0 || j == n-1 {
					// Equilibrium inflow/outflow columns: fresh air
					// enters on the left, transients leave on the right.
					for k := 0; k < 9; k++ {
						feq := equilibriumD2(k, 1, latticeInflow, 0)
						ii := (i + d2ey[k] + n) % n
						jj := (j + d2ex[k] + n) % n
						sys.StoreF32(l.g[k]+l.idx(ii, jj), feq)
					}
					sys.Compute(10)
					continue
				}
				solid := sys.Load32(l.mask+at) != 0
				var fk [9]float32
				for k := 0; k < 9; k++ {
					fk[k] = sys.LoadF32(l.f[k] + at)
				}
				if solid {
					// Bounce-back: reflect distributions in place.
					for k := 0; k < 9; k++ {
						sys.StoreF32(l.g[d2opp[k]]+at, fk[k])
					}
					sys.Compute(10)
					continue
				}
				var rho, ux, uy float32
				for k := 0; k < 9; k++ {
					rho += fk[k]
					ux += float32(d2ex[k]) * fk[k]
					uy += float32(d2ey[k]) * fk[k]
				}
				if rho > 0 {
					ux /= rho
					uy /= rho
				}
				sys.Compute(40) // collision arithmetic
				for k := 0; k < 9; k++ {
					feq := equilibriumD2(k, rho, ux, uy)
					out := fk[k] + latticeOmega*(feq-fk[k])
					ii := (i + d2ey[k] + n) % n
					jj := (j + d2ex[k] + n) % n
					sys.StoreF32(l.g[k]+l.idx(ii, jj), out)
				}
			}
		}
		l.f, l.g = l.g, l.f
	}
}

// Output implements Workload: velocity magnitude and pressure (rho/3)
// over a sample of the domain, the paper's "Vel.+Pr." output.
func (l *Lattice) Output(sys *sim.System) []float64 {
	out := make([]float64, 0, l.n*l.n/8)
	for i := 0; i < l.n; i += 2 {
		for j := 0; j < l.n; j += 2 {
			at := l.idx(i, j)
			var rho, ux, uy float64
			for k := 0; k < 9; k++ {
				f := float64(sys.Space.LoadF32(l.f[k] + at))
				rho += f
				ux += float64(d2ex[k]) * f
				uy += float64(d2ey[k]) * f
			}
			if rho != 0 {
				ux /= rho
				uy /= rho
			}
			out = append(out, ux*ux+uy*uy, rho/3)
		}
	}
	return out
}
