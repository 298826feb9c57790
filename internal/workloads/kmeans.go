package workloads

import (
	"math"

	"avr/internal/compress"
	"avr/internal/mem"
	"avr/internal/sim"
)

// KMeans is the 1D k-means clustering benchmark, applied to a geographic
// elevation map as in the paper (Swedish Topological Survey input). The
// elevation samples are float32 metres and approximable; the centroids
// are exact and kept in Q.8 fixed point by the kernel.
//
// k-means is the paper's one workload whose instruction count depends on
// the approximation: distorted points can take extra iterations to
// converge, which is exactly the effect reported for AVR.
type KMeans struct {
	n    int
	k    int
	data uint64 // float32 elevations, approximable
	cent []int64
	iter int

	// Reduction state the cores share (see Run).
	partial [][2][]int64
	moved   int64
}

// NewKMeans creates the benchmark.
func NewKMeans() *KMeans { return &KMeans{} }

// Name implements Workload.
func (m *KMeans) Name() string { return "kmeans" }

// Setup implements Workload.
func (m *KMeans) Setup(sys *sim.System, sc Scale) { setup(m, sys.Space, sc) }

func (m *KMeans) layout(s *mem.Space, sc Scale) {
	switch sc {
	case ScaleSmall:
		m.n = 224 << 10 // 896 kB, ~3.5× the small LLC slice
	default:
		m.n = 896 << 10 // 3.5 MiB
	}
	m.k = 16
	if m.k > 16 {
		panic("kmeans: the nearest-centroid search keeps a centroid number in 4 bits")
	}
	m.data = s.AllocApprox(uint64(m.n)*4, compress.Float32)
	// Initial centroids spread over the observed range.
	m.cent = make([]int64, m.k)
	for c := 0; c < m.k; c++ {
		m.cent[c] = int64(400*256) + int64(c)*int64(700*256)/int64(m.k)
	}
}

// fill writes a fractal 1D elevation profile built by midpoint
// displacement (geographically ordered, moderately smooth — the paper
// reports a 2.3:1 ratio on this dataset).
func (m *KMeans) fill(s *mem.Space) {
	// Midpoint displacement over a power-of-two span covering n, with
	// strong high-frequency roughness: real elevation rasters are only
	// moderately compressible (the paper measures 2.3:1 on this input).
	span := 1
	for span < m.n {
		span <<= 1
	}
	h := make([]float64, span+1)
	h[0], h[span] = 680, 840
	r := newRNG(1234577)
	for step := span; step > 1; step >>= 1 {
		amp := float64(step) * 0.9
		if amp > 220 {
			amp = 220
		}
		if amp < 28 {
			amp = 28
		}
		for i := 0; i+step <= span; i += step {
			mid := i + step/2
			h[mid] = (h[i]+h[i+step])/2 + r.norm()*amp/4
		}
	}
	for i := 0; i < m.n; i++ {
		e := h[i] + r.norm()*9 // per-sample sensor roughness
		if e < 0 {
			e = 0
		}
		s.StoreF32(m.data+uint64(i)*4, float32(e))
	}
}

// Run implements Workload: Lloyd iterations until the centroids move
// less than half a metre, or an iteration cap. Cores scan disjoint point
// ranges into private partial sums, and core 0 reduces them at the
// barrier, like an OpenMP reduction.
func (m *KMeans) Run(c Core) {
	const maxIter = 40
	const eps = 128 // half a metre in Q.8
	if c.ID() == 0 {
		m.iter = 0
		m.partial = make([][2][]int64, c.N())
	}
	c.Barrier()
	lo, hi := shard(0, m.n, c.ID(), c.N())
	for it := 0; it < maxIter; it++ {
		sums := make([]int64, m.k)
		counts := make([]int64, m.k)
		for i := lo; i < hi; i++ {
			v := int64(c.LoadF32(m.data+uint64(i)*4) * 256) // Q.8 metres
			// The nearest centroid, the first on a tie, is the minimum of
			// |v-cent|<<4 | k (an elevation in Q.8 is far below 1<<59).
			// Go compiles this min to a conditional move: which centroid
			// wins changes from point to point, so a compare and branch
			// would mispredict.
			least := int64(math.MaxInt64)
			for k, ck := range m.cent {
				d := v - ck
				d = (d ^ d>>63) - d>>63
				least = min(least, d<<4|int64(k))
			}
			best := least & 15
			c.Compute(uint64(m.k + 4))
			sums[best] += v
			counts[best]++
		}
		m.partial[c.ID()] = [2][]int64{sums, counts}
		c.Barrier()
		if c.ID() == 0 {
			m.iter++
			moved := int64(0)
			for k := 0; k < m.k; k++ {
				var s, n int64
				for _, p := range m.partial {
					s += p[0][k]
					n += p[1][k]
				}
				if n == 0 {
					continue
				}
				nc := s / n
				d := nc - m.cent[k]
				if d < 0 {
					d = -d
				}
				if d > moved {
					moved = d
				}
				m.cent[k] = nc
			}
			c.Compute(uint64(m.k * 6))
			m.moved = moved
		}
		c.Barrier()
		if m.moved < eps {
			break
		}
	}
	c.Barrier()
}

// Output implements Workload: the final centroids in metres.
func (m *KMeans) Output(sys *sim.System) []float64 {
	out := make([]float64, m.k)
	for c := 0; c < m.k; c++ {
		out[c] = float64(m.cent[c]) / 256
	}
	return out
}
