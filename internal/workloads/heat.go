package workloads

import (
	"avr/internal/compress"
	"avr/internal/mem"
	"avr/internal/sim"
)

// Heat is the 2D thermodynamics benchmark (Quinn, "Parallel Programming
// in C with MPI and OpenMP"): Jacobi iteration of the heat equation over
// a grid of temperatures. Both the current and next temperature grids
// are approximable, as in the paper (8.2 MB/core footprint).
type Heat struct {
	n     int
	iters int
	cur   uint64 // grid buffers (float32 n×n)
	next  uint64
}

// NewHeat creates the benchmark.
func NewHeat() *Heat { return &Heat{} }

// Name implements Workload.
func (h *Heat) Name() string { return "heat" }

// Setup implements Workload.
func (h *Heat) Setup(sys *sim.System, sc Scale) { setup(h, sys.Space, sc) }

func (h *Heat) layout(s *mem.Space, sc Scale) {
	switch sc {
	case ScaleSmall:
		h.n, h.iters = 512, 8 // 2 × 1 MiB grids vs 256 kB LLC slice
	default:
		h.n, h.iters = 1024, 10 // 2 × 4 MiB grids vs 1 MB LLC slice
	}
	n := uint64(h.n)
	h.cur = s.AllocApprox(n*n*4, compress.Float32)
	h.next = s.AllocApprox(n*n*4, compress.Float32)
}

// fill lays down a cold plate with hot top and left edges plus a warm
// disc in the interior.
func (h *Heat) fill(s *mem.Space) {
	r := newRNG(4242)
	for i := 0; i < h.n; i++ {
		for j := 0; j < h.n; j++ {
			t := float32(20)
			if i == 0 || j == 0 {
				t = 100
			}
			di, dj := i-h.n/3, j-h.n/2
			if di*di+dj*dj < (h.n/8)*(h.n/8) {
				t = 80
			}
			// Measured temperatures carry sensor noise in the low bits
			// (±0.05 K); perfectly bit-identical regions would overstate
			// any lossless compressor.
			t += float32(r.norm()) * 0.02
			s.StoreF32(h.addr(h.cur, i, j), t)
			s.StoreF32(h.addr(h.next, i, j), t)
		}
	}
}

func (h *Heat) addr(base uint64, i, j int) uint64 {
	return base + uint64(i*h.n+j)*4
}

// Run implements Workload: iters Jacobi sweeps with fixed boundaries.
// Each core sweeps its own band of rows, and a barrier separates the
// sweeps, since the stencil reads the previous sweep's halo rows.
func (h *Heat) Run(c Core) {
	lo, hi := shard(1, h.n-1, c.ID(), c.N())
	cur, next := h.cur, h.next
	for it := 0; it < h.iters; it++ {
		for i := lo; i < hi; i++ {
			for j := 1; j < h.n-1; j++ {
				up := c.LoadF32(h.addr(cur, i-1, j))
				down := c.LoadF32(h.addr(cur, i+1, j))
				left := c.LoadF32(h.addr(cur, i, j-1))
				right := c.LoadF32(h.addr(cur, i, j+1))
				c.Compute(5) // 3 adds + 1 mul + loop overhead
				c.StoreF32(h.addr(next, i, j), 0.25*(up+down+left+right))
			}
		}
		cur, next = next, cur
		c.Barrier()
	}
	// Leave h.cur pointing at the final grid for Output.
	if c.ID() == 0 {
		h.cur, h.next = cur, next
	}
	c.Barrier()
}

// Output implements Workload: the final temperature grid.
func (h *Heat) Output(sys *sim.System) []float64 {
	out := make([]float64, 0, h.n*h.n/16)
	for i := 0; i < h.n; i += 4 {
		for j := 0; j < h.n; j += 4 {
			out = append(out, float64(sys.Space.LoadF32(h.addr(h.cur, i, j))))
		}
	}
	return out
}
