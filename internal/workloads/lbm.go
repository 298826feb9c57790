package workloads

import (
	"math"

	"avr/internal/compress"
	"avr/internal/mem"
	"avr/internal/sim"
)

// LBM is the 3D Lattice-Boltzmann benchmark (SPEC CPU2006 470.lbm):
// D3Q19 BGK simulation of fluid flow over a sphere. The velocity
// distributions are approximable (the paper approximates ~98% of lbm's
// footprint and reaches a 15.6:1 ratio — the flow field is very smooth).
type LBM struct {
	n     int
	iters int
	f     [19]uint64 // distribution planes, current
	g     [19]uint64 // distribution planes, next
	mask  uint64
}

// d3e is the D3Q19 velocity set; d3wt the weights (×36); d3o the
// opposite-direction table.
var (
	d3e = [19][3]int{
		{0, 0, 0},
		{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
		{1, 1, 0}, {-1, -1, 0}, {1, -1, 0}, {-1, 1, 0},
		{1, 0, 1}, {-1, 0, -1}, {1, 0, -1}, {-1, 0, 1},
		{0, 1, 1}, {0, -1, -1}, {0, 1, -1}, {0, -1, 1},
	}
	d3wt = [19]float32{12, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	d3o  = [19]int{0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17}
)

const lbmOmega = 0.8

// lbmInflow is the inlet velocity.
const lbmInflow = 0.04

// lbmWarmupIters is how many untimed sweeps develop the flow before the
// measured region. It is even: each sweep swaps the planes.
const lbmWarmupIters = 8

// NewLBM creates the benchmark.
func NewLBM() *LBM { return &LBM{} }

// Name implements Workload.
func (l *LBM) Name() string { return "lbm" }

func (l *LBM) idx(x, y, z int) uint64 {
	return uint64((x*l.n+y)*l.n+z) * 4
}

// Setup implements Workload.
func (l *LBM) Setup(sys *sim.System, sc Scale) { setup(l, sys.Space, sc) }

func (l *LBM) layout(s *mem.Space, sc Scale) {
	switch sc {
	case ScaleSmall:
		l.n, l.iters = 32, 6 // 19 planes × 128 kB × 2 ≈ 5 MiB
	default:
		l.n, l.iters = 48, 6 // ≈ 16.8 MiB
	}
	cells := uint64(l.n * l.n * l.n)
	// Plane bases are staggered by a few cachelines: the plane size is a
	// multiple of 4 kB, and without padding the 38 concurrent streams of
	// the sweep would alias into the same cache sets (the usual
	// power-of-two stride padding every stencil code applies).
	for k := 0; k < 19; k++ {
		l.f[k] = s.AllocApprox(cells*4+4096, compress.Float32) + uint64(k%15+1)*64
		l.g[k] = s.AllocApprox(cells*4+4096, compress.Float32) + uint64((k+7)%15+1)*64
	}
	l.mask = s.Alloc(cells*4, 64)
}

// fill writes a uniform flow with a solid sphere at the domain centre
// and develops it.
func (l *LBM) fill(s *mem.Space) {
	c, r := l.n/2, l.n/16+1
	const ux0 = lbmInflow
	for x := 0; x < l.n; x++ {
		for y := 0; y < l.n; y++ {
			for z := 0; z < l.n; z++ {
				m := uint32(0)
				dx, dy, dz := x-c, y-c, z-c
				if dx*dx+dy*dy+dz*dz < r*r {
					m = 1
				}
				s.Store32(l.mask+l.idx(x, y, z), m)
				// Smooth initial velocity ramp to zero at the sphere so
				// the startup transient is mild (a hard kick would ring
				// through the periodic directions for a long time).
				d := float32(0)
				if rr := dx*dx + dy*dy + dz*dz; rr >= r*r {
					t := (float32(rr) - float32(r*r)) / float32(9*r*r)
					if t > 1 {
						t = 1
					}
					d = ux0 * t
				}
				for k := 0; k < 19; k++ {
					s.StoreF32(l.f[k]+l.idx(x, y, z), equilibriumD3(k, 1, d, 0, 0))
				}
			}
		}
	}
	// Fast-forward the flow functionally (untimed) so the measured region
	// starts from a developed, smooth field — the regime the paper's
	// steady-state SPEC lbm measurement sees (15.6:1 compression).
	f := l.f
	l.sweep(rawIO{s}, lbmWarmupIters)
	if l.f != f {
		panic("workloads: lbm warm-up must run an even number of sweeps")
	}
}

// equilibriumD3 is the D3Q19 BGK equilibrium distribution.
func equilibriumD3(k int, rho, ux, uy, uz float32) float32 {
	eu := float32(d3e[k][0])*ux + float32(d3e[k][1])*uy + float32(d3e[k][2])*uz
	u2 := ux*ux + uy*uy + uz*uz
	return d3wt[k] / 36 * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*u2)
}

// Run implements Workload: the measured region, after the flow has
// developed during Setup's warm-up.
func (l *LBM) Run(sys Core) { l.sweep(sys, l.iters) }

// sweep runs iters collide-and-stream sweeps over the domain.
func (l *LBM) sweep(sys Core, iters int) {
	n := l.n
	for it := 0; it < iters; it++ {
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < n; z++ {
					at := l.idx(x, y, z)
					if x == 0 || x == n-1 || y == 0 || y == n-1 || z == 0 || z == n-1 {
						// Equilibrium far-field boundaries on every face:
						// fresh fluid enters, transients leave (SPEC lbm's
						// open boundaries). Boundary cells stream their
						// equilibrium into the neighbours like any other
						// cell so the adjacent layer stays fed.
						for k := 0; k < 19; k++ {
							feq := equilibriumD3(k, 1, lbmInflow, 0, 0)
							xx := (x + d3e[k][0] + n) % n
							yy := (y + d3e[k][1] + n) % n
							zz := (z + d3e[k][2] + n) % n
							sys.StoreF32(l.g[k]+l.idx(xx, yy, zz), feq)
						}
						sys.Compute(20)
						continue
					}
					solid := sys.Load32(l.mask+at) != 0
					var fk [19]float32
					for k := 0; k < 19; k++ {
						fk[k] = sys.LoadF32(l.f[k] + at)
					}
					if solid {
						for k := 0; k < 19; k++ {
							sys.StoreF32(l.g[d3o[k]]+at, fk[k])
						}
						sys.Compute(20)
						continue
					}
					var rho, ux, uy, uz float32
					for k := 0; k < 19; k++ {
						rho += fk[k]
						ux += float32(d3e[k][0]) * fk[k]
						uy += float32(d3e[k][1]) * fk[k]
						uz += float32(d3e[k][2]) * fk[k]
					}
					if rho > 0 {
						ux /= rho
						uy /= rho
						uz /= rho
					}
					sys.Compute(80)
					for k := 0; k < 19; k++ {
						feq := equilibriumD3(k, rho, ux, uy, uz)
						out := fk[k] + lbmOmega*(feq-fk[k])
						xx := (x + d3e[k][0] + n) % n
						yy := (y + d3e[k][1] + n) % n
						zz := (z + d3e[k][2] + n) % n
						sys.StoreF32(l.g[k]+l.idx(xx, yy, zz), out)
					}
				}
			}
		}
		l.f, l.g = l.g, l.f
	}
}

// Output implements Workload: the flow field (velocity magnitude and
// density), sampled.
func (l *LBM) Output(sys *sim.System) []float64 {
	out := make([]float64, 0, l.n*l.n*l.n*2)
	for x := 0; x < l.n; x++ {
		for y := 0; y < l.n; y++ {
			for z := 0; z < l.n; z += 2 {
				at := l.idx(x, y, z)
				var rho, ux, uy, uz float64
				for k := 0; k < 19; k++ {
					f := float64(sys.Space.LoadF32(l.f[k] + at))
					rho += f
					ux += float64(d3e[k][0]) * f
					uy += float64(d3e[k][1]) * f
					uz += float64(d3e[k][2]) * f
				}
				if rho != 0 {
					ux /= rho
					uy /= rho
					uz /= rho
				}
				out = append(out, math.Sqrt(ux*ux+uy*uy+uz*uz), rho)
			}
		}
	}
	return out
}
