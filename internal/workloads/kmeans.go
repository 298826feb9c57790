package workloads

import (
	"avr/internal/compress"
	"avr/internal/mem"
	"avr/internal/sim"
)

// KMeans is the 1D k-means clustering benchmark, applied to a geographic
// elevation map as in the paper (Swedish Topological Survey input). The
// elevation samples are float32 metres and approximable; the centroids
// are exact and kept in Q.8 fixed point by the kernel.
//
// In the paper k-means is the one workload whose instruction count
// depends on the approximation: distorted points take extra iterations
// to converge. Not here: no run ever meets the convergence test, both
// designs run all kmeansMaxIter iterations at both scales, and the
// instruction counts of Baseline and AVR are equal (known modelling
// deviation 8, EXPERIMENTS.md; TestKMeansIterationsRecorded).
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

// kmeansMaxIter caps the Lloyd iterations.
const kmeansMaxIter = 40

// Run implements Workload: Lloyd iterations until the centroids move
// less than half a metre, or an iteration cap. Cores scan disjoint point
// ranges into private partial sums, and core 0 reduces them at the
// barrier, like an OpenMP reduction.
func (m *KMeans) Run(c Core) {
	const eps = 128 // half a metre in Q.8
	if c.ID() == 0 {
		m.iter = 0
		m.partial = make([][2][]int64, c.N())
	}
	c.Barrier()
	lo, hi := shard(0, m.n, c.ID(), c.N())
	thr := make([]int64, 0, m.k)
	target := make([]int, 0, m.k)
	for it := 0; it < kmeansMaxIter; it++ {
		thr, target = midpoints(m.cent, thr[:0], target[:0])
		sums := make([]int64, m.k)
		counts := make([]int64, m.k)
		for i := lo; i < hi; i++ {
			v := int64(c.LoadF32(m.data+uint64(i)*4) * 256) // Q.8 metres
			best := target[countBelow(thr, 2*v)]
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

// midpoints appends to thr and target the search table of the nearest
// centroid, the first on a tie, over the centroids cent: one threshold
// cent[j]+cent[j+1] per pair of neighbours that differ, and the index of
// the first centroid of each run of equal ones. A point v then belongs
// to target[countBelow(thr, 2*v)]: it lies above the midpoints it
// counts, and on a midpoint it stays with the lower centroid, as the
// first on a tie.
//
// The table needs cent sorted, and Lloyd's iterations in one dimension
// keep it so. With sorted centroids each cluster is a contiguous range
// of values, so every point of a cluster lies below every point of the
// next one; as the points are integers, a cluster's largest point is
// below the next one's smallest, and truncating division is monotone, so
// the new means are strictly increasing. A cluster left empty keeps its
// centroid, which lies strictly between the points of the clusters on
// either side and so between their new means. Starting from strictly
// increasing centroids (layout's), they stay strictly increasing; this
// O(k) check fails loudly if that ever stops holding.
func midpoints(cent, thr []int64, target []int) ([]int64, []int) {
	target = append(target, 0)
	for j := 1; j < len(cent); j++ {
		switch {
		case cent[j] < cent[j-1]:
			panic("kmeans: centroids out of order, the midpoint search needs them sorted")
		case cent[j] > cent[j-1]:
			thr = append(thr, cent[j-1]+cent[j])
			target = append(target, j)
		}
	}
	return thr, target
}

// countBelow is how many thresholds lie strictly below x, counted
// without a branch: which side of a midpoint a point falls changes from
// point to point, so a compare and branch would mispredict. Elevations
// in Q.8 are far below 1<<61, so t-x cannot overflow.
func countBelow(thr []int64, x int64) int {
	n := 0
	for _, t := range thr {
		n += int(uint64(t-x) >> 63)
	}
	return n
}

// Output implements Workload: the final centroids in metres.
func (m *KMeans) Output(sys *sim.System) []float64 {
	out := make([]float64, m.k)
	for c := 0; c < m.k; c++ {
		out[c] = float64(m.cent[c]) / 256
	}
	return out
}
