package obs

// Histogram is a fixed-bucket, allocation-free histogram. Buckets are
// defined by ascending inclusive upper bounds; values above the last
// bound land in an implicit overflow bucket. A nil *Histogram is valid
// and observes nothing, so disabled instrumentation costs one predicted
// branch.
type Histogram struct {
	name     string
	unit     string
	bounds   []float64
	counts   []uint64
	overflow uint64
	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram creates a histogram with the given ascending inclusive
// upper bounds. The bounds slice is copied.
func NewHistogram(name, unit string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		name:   name,
		unit:   unit,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)),
	}
}

// Observe records one value. It does not allocate.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	// Linear scan: bucket counts are small (≤ a few dozen) and the scan
	// is branch-predictable on skewed distributions.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.overflow++
}

// Bucket is one histogram bucket in a Summary: the count of observations
// v with prev.Le < v <= Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Summary is the exportable snapshot of a histogram. It is plain data
// (JSON-marshalable, comparable with reflect.DeepEqual) so it can ride
// inside sim.Result and the persistent result cache.
type Summary struct {
	Name    string   `json:"name"`
	Unit    string   `json:"unit,omitempty"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets"`
	// Overflow counts observations above the last bucket bound.
	Overflow uint64 `json:"overflow,omitempty"`
}

// Mean returns the mean observation (0 when empty).
func (s Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Summary snapshots the histogram. A nil histogram yields a zero
// Summary.
func (h *Histogram) Summary() Summary {
	if h == nil {
		return Summary{}
	}
	s := Summary{
		Name:     h.name,
		Unit:     h.unit,
		Count:    h.count,
		Sum:      h.sum,
		Overflow: h.overflow,
		Buckets:  make([]Bucket, len(h.bounds)),
	}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	for i, b := range h.bounds {
		s.Buckets[i] = Bucket{Le: b, Count: h.counts[i]}
	}
	return s
}

// Standard histogram shapes used across the simulator and the serving
// tiers. Keeping the bucket layouts here means every run and every
// benchmark bins identically, so distributions are directly comparable.

// DRAMLatencyHistogram bins per-burst DRAM access latency in CPU cycles
// (issue to data-transfer completion, queueing included).
func DRAMLatencyHistogram() *Histogram {
	return NewHistogram("dram_latency", "cycles",
		[]float64{32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048})
}

// BlockSizeHistogram bins successful compressions by compressed block
// size in cachelines (1–8; see compress.MaxCompressedLines).
func BlockSizeHistogram() *Histogram {
	return NewHistogram("compressed_block_lines", "cachelines",
		[]float64{1, 2, 3, 4, 5, 6, 7, 8})
}

// OutlierHistogram bins successful compressions by their outlier count.
func OutlierHistogram() *Histogram {
	return NewHistogram("outliers_per_block", "outliers",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64})
}

// ReconErrorHistogram bins successful compressions by the average
// relative reconstruction error of the block's non-outlier values.
func ReconErrorHistogram() *Histogram {
	return NewHistogram("reconstruction_error", "relative error",
		[]float64{1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1})
}

// ServerLatencyHistogram bins codec-service request latency in
// microseconds, admission queueing included (internal/server).
func ServerLatencyHistogram() *Histogram {
	return NewHistogram("server_latency", "µs",
		[]float64{50, 100, 250, 500, 1000, 2500, 5000, 10000,
			25000, 50000, 100000, 250000, 1e6})
}

// CodecRatioHistogram bins codec-service requests by achieved
// compression ratio (original bytes / stream bytes).
func CodecRatioHistogram() *Histogram {
	return NewHistogram("codec_ratio", "ratio",
		[]float64{0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16})
}

// StageLatencyHistogram bins one traced request stage's latency in
// microseconds (internal/trace). The buckets extend below the serving
// histogram's because a single stage — a pool checkout, a lock wait —
// is routinely sub-50µs even when the request is not.
func StageLatencyHistogram(name string) *Histogram {
	return NewHistogram(name, "µs",
		[]float64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
			10000, 25000, 50000, 100000, 250000, 1e6})
}
