package avr

// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation (run them with `go test -bench 'Table|Fig'`), plus
// microbenchmarks of the performance-critical simulator components.
//
// The experiment benchmarks share a lazily built benchmark × design
// matrix (≈20 s of simulation, paid once per `go test -bench` process);
// each benchmark then regenerates its table/figure from the memoised
// runs and reports the headline numbers as custom metrics.

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"avr/internal/compress"
	"avr/internal/core"
	"avr/internal/dram"
	"avr/internal/experiments"
	"avr/internal/mem"
	"avr/internal/sim"
	"avr/internal/workloads"
)

var (
	matrixOnce   sync.Once
	matrixRunner *experiments.Runner
)

func matrix(b *testing.B) *experiments.Runner {
	b.Helper()
	matrixOnce.Do(func() {
		matrixRunner = experiments.NewRunner(workloads.ScaleSmall)
		if err := matrixRunner.Prefetch(experiments.Benchmarks(), sim.Designs); err != nil {
			b.Fatal(err)
		}
	})
	return matrixRunner
}

// benchReport runs one experiment per iteration from the warm matrix.
func benchReport(b *testing.B, id string) experiments.Report {
	r := matrix(b)
	b.ResetTimer()
	var rep experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = r.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// BenchmarkTable3OutputError regenerates Table 3 (application output
// error per design) and reports AVR's error on heat.
func BenchmarkTable3OutputError(b *testing.B) {
	benchReport(b, "table3")
	e, err := matrix(b).OutputError("heat", sim.AVR)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(e*100, "heat-avr-err-%")
}

// BenchmarkTable4Compression regenerates Table 4 (compression ratio and
// footprint) and reports heat's ratio.
func BenchmarkTable4Compression(b *testing.B) {
	benchReport(b, "table4")
	e, err := matrix(b).Run("heat", sim.AVR)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(e.Result.CompressionRatio, "heat-ratio")
}

// BenchmarkFig9ExecutionTime regenerates Figure 9 and reports AVR's
// geomean normalised execution time.
func BenchmarkFig9ExecutionTime(b *testing.B) {
	benchReport(b, "fig9")
	b.ReportMetric(normGeomean(b, func(e *experiments.Entry) float64 {
		return float64(e.Result.Cycles)
	}), "avr-exec-geomean")
}

// BenchmarkFig10Energy regenerates the Figure 10 energy breakdown.
func BenchmarkFig10Energy(b *testing.B) {
	benchReport(b, "fig10")
	b.ReportMetric(normGeomean(b, func(e *experiments.Entry) float64 {
		return e.Result.Energy.Total()
	}), "avr-energy-geomean")
}

// BenchmarkFig11Traffic regenerates the Figure 11 memory-traffic figure.
func BenchmarkFig11Traffic(b *testing.B) {
	benchReport(b, "fig11")
	b.ReportMetric(normGeomean(b, func(e *experiments.Entry) float64 {
		return float64(e.Result.DRAM.TotalBytes())
	}), "avr-traffic-geomean")
}

// BenchmarkFig12AMAT regenerates the Figure 12 AMAT figure.
func BenchmarkFig12AMAT(b *testing.B) {
	benchReport(b, "fig12")
	b.ReportMetric(normGeomean(b, func(e *experiments.Entry) float64 {
		return e.Result.AMAT
	}), "avr-amat-geomean")
}

// BenchmarkFig13MPKI regenerates the Figure 13 MPKI figure.
func BenchmarkFig13MPKI(b *testing.B) {
	benchReport(b, "fig13")
	b.ReportMetric(normGeomean(b, func(e *experiments.Entry) float64 {
		return e.Result.MPKI
	}), "avr-mpki-geomean")
}

// BenchmarkFig14Requests regenerates the Figure 14 request breakdown and
// reports the fraction of heat's approximate requests served on-chip.
func BenchmarkFig14Requests(b *testing.B) {
	benchReport(b, "fig14")
	e, err := matrix(b).Run("heat", sim.AVR)
	if err != nil {
		b.Fatal(err)
	}
	st := e.Result.AVRStats
	total := st.ApproxMiss + st.ApproxUncompHit + st.ApproxDBUFHit + st.ApproxCompHit
	if total > 0 {
		b.ReportMetric(100*float64(total-st.ApproxMiss)/float64(total), "heat-onchip-%")
	}
}

// BenchmarkFig15Evictions regenerates the Figure 15 eviction breakdown
// and reports heat's lazy-writeback share.
func BenchmarkFig15Evictions(b *testing.B) {
	benchReport(b, "fig15")
	e, err := matrix(b).Run("heat", sim.AVR)
	if err != nil {
		b.Fatal(err)
	}
	st := e.Result.AVRStats
	total := st.EvRecompress + st.EvLazyWB + st.EvFetchRecompress + st.EvUncompWB
	if total > 0 {
		b.ReportMetric(100*float64(st.EvLazyWB)/float64(total), "heat-lazy-%")
	}
}

// normGeomean computes AVR's geometric-mean metric normalised to
// baseline over all benchmarks, from the warm matrix.
func normGeomean(b *testing.B, metric func(*experiments.Entry) float64) float64 {
	b.Helper()
	r := matrix(b)
	var logSum float64
	var n int
	for _, bench := range experiments.Benchmarks() {
		base, err := r.Run(bench, sim.Baseline)
		if err != nil {
			b.Fatal(err)
		}
		e, err := r.Run(bench, sim.AVR)
		if err != nil {
			b.Fatal(err)
		}
		mb := metric(base)
		if mb == 0 {
			continue
		}
		v := metric(e) / mb
		if v <= 0 {
			v = 1e-9
		}
		logSum += math.Log(v)
		n++
	}
	return math.Exp(logSum / float64(n))
}

// ---- microbenchmarks ----

// BenchmarkCompressBlock measures compressor throughput on a smooth
// block (both variants attempted, as in hardware).
func BenchmarkCompressBlock(b *testing.B) {
	c := compress.NewCompressor(compress.DefaultThresholds())
	var blk [compress.BlockValues]uint32
	for i := range blk {
		blk[i] = math.Float32bits(100 + float32(i)*0.03)
	}
	b.SetBytes(compress.BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Compress(&blk, compress.Float32)
		if !r.OK {
			b.Fatal("compression failed")
		}
	}
}

// BenchmarkCompressBlockNoisy measures the worst case: a block that
// fails after producing many outliers.
func BenchmarkCompressBlockNoisy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := compress.NewCompressor(compress.DefaultThresholds())
	var blk [compress.BlockValues]uint32
	for i := range blk {
		blk[i] = math.Float32bits(float32(rng.NormFloat64()) * float32(math.Exp2(float64(rng.Intn(20)-10))))
	}
	b.SetBytes(compress.BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(&blk, compress.Float32)
	}
}

// BenchmarkDecompressBlock measures reconstruction throughput.
func BenchmarkDecompressBlock(b *testing.B) {
	c := compress.NewCompressor(compress.DefaultThresholds())
	var blk [compress.BlockValues]uint32
	for i := range blk {
		blk[i] = math.Float32bits(100 + float32(i)*0.03)
	}
	r := c.Compress(&blk, compress.Float32)
	var bm *[compress.BitmapBytes]byte
	if len(r.Outliers) > 0 {
		bm = &r.Bitmap
	}
	b.SetBytes(compress.BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.Decompress(&r.Summary, bm, r.Outliers, r.Method, r.Bias, compress.Float32)
	}
}

// BenchmarkAVRLLCHit measures the AVR LLC's hot lookup path.
func BenchmarkAVRLLCHit(b *testing.B) {
	space := mem.NewSpace(8 << 20)
	base := space.AllocApprox(1<<20, compress.Float32)
	d := dram.New(dram.DDR4(1, 1))
	llc := core.New(core.DefaultConfig(256<<10), space, d)
	llc.Access(0, base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.Access(uint64(i), base)
	}
}

// BenchmarkDRAMAccess measures the DRAM timing model.
func BenchmarkDRAMAccess(b *testing.B) {
	d := dram.New(dram.DDR4(2, 1))
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = d.Access(now, uint64(i)*64, i&1 == 0, false)
	}
}

// BenchmarkCodecEncode measures EncodeTo into a retained buffer — the
// store's put encode — over 64 Ki fp32 values of a smooth wave, every
// block compressing. Allocation-free by contract (scripts/bench.sh gates
// it, and its Encode64 and Noise twins).
func BenchmarkCodecEncode(b *testing.B) {
	vals := make([]float32, 64*1024)
	for i := range vals {
		vals[i] = float32(50 + 10*math.Sin(float64(i)/80))
	}
	benchEncode32(b, vals)
}

// BenchmarkCodecEncodeNoise is BenchmarkCodecEncode over iid normal
// values: both placement attempts fail on every block, which goes raw.
func BenchmarkCodecEncodeNoise(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float32, 64*1024)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	benchEncode32(b, vals)
}

// BenchmarkCodecEncode64 is BenchmarkCodecEncode for the fp64 stream
// (Encode64To, the same wave as 64 Ki doubles).
func BenchmarkCodecEncode64(b *testing.B) {
	c := NewCodec(0)
	vals := make([]float64, 64*1024)
	for i := range vals {
		vals[i] = 50 + 10*math.Sin(float64(i)/80)
	}
	dst, err := c.Encode64To(nil, vals)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = c.Encode64To(dst[:0], vals); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEncode32(b *testing.B, vals []float32) {
	c := NewCodec(0)
	dst, err := c.EncodeTo(nil, vals)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = c.EncodeTo(dst[:0], vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecode measures DecodeTo into a retained buffer — the
// store's Get decode — over a stream mixing outlier-free, outlier-carrying
// and raw records. Allocation-free by contract (scripts/bench.sh gates it).
func BenchmarkCodecDecode(b *testing.B) {
	c := NewCodec(0)
	vals := make([]float32, 64*1024)
	for i, v := range decodeBenchSignal(len(vals)) {
		vals[i] = float32(v)
	}
	enc, err := c.Encode(vals)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, 0, len(vals))
	b.SetBytes(int64(4 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeTo(dst[:0], enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecode64 is BenchmarkCodecDecode for the fp64 stream.
func BenchmarkCodecDecode64(b *testing.B) {
	c := NewCodec(0)
	vals := decodeBenchSignal(64 * 1024)
	enc, err := c.Encode64(vals)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 0, len(vals))
	b.SetBytes(int64(8 * len(vals)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode64To(dst[:0], enc); err != nil {
			b.Fatal(err)
		}
	}
}

// decodeBenchSignal is a smooth wave with one stretch of bit noise in
// every 4096 values (raw records) and, in every other 512-value stretch,
// a 1.5x spike each 97 values (records with outliers).
func decodeBenchSignal(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 50 + 10*math.Sin(float64(i)/80)
		switch {
		case i%4096 < 256:
			out[i] = math.Float64frombits(0x9E3779B97F4A7C15 * uint64(i+1))
		case i%1024 < 512 && i%97 == 0:
			out[i] *= 1.5
		}
	}
	return out
}

// BenchmarkSimulatorHeatAVR measures full-system simulation speed
// (simulated instructions per second).
func BenchmarkSimulatorHeatAVR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := workloads.NewHeat()
		sys := sim.New(sim.PresetSmall(sim.AVR))
		w.Setup(sys, workloads.ScaleSmall)
		sys.Prime()
		w.Run(sys)
		res := sys.Finish("heat")
		b.ReportMetric(float64(res.Instructions), "sim-insts/op")
	}
}
