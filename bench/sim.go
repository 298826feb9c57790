package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"avr"
	"avr/internal/compress"
	"avr/internal/obs"
	"avr/internal/sim"
	"avr/internal/workloads"
)

// simDesigns are the two columns of the matrix: the paper's baseline and
// the full AVR design.
var simDesigns = []avr.Design{avr.Baseline, avr.AVR}

// minSimPasses: every cell runs at least twice, so the determinism check
// always has something to compare and every chunk of a cell has two
// readings to take the faster of.
const minSimPasses = 2

// cellRun is one simulation of a cell: its statistics and its host time,
// cut every refEveryAccesses simulated accesses. The simulation is
// deterministic, so step i is the same work in every run of a cell.
type cellRun struct {
	res avr.Result
	*steps
}

// simCell is one (benchmark, design) pair across passes.
type simCell struct {
	bench  string
	design avr.Design
	runs   []*cellRun // one per pass
}

func (c *simCell) name() string {
	if c.design == avr.AVR {
		return c.bench + "_avr"
	}
	return c.bench + "_baseline"
}

// first is the cell's pass-1 statistics, which every later pass must
// reproduce.
func (c *simCell) first() avr.Result { return c.runs[0].res }

// simResult is what sim_matrix measured.
type simResult struct {
	cells     []*simCell
	passes    int
	attempted int // cells run
	failed    int // cells of a later pass whose statistics differ from pass 1
	diverged  []string
}

// refEveryAccesses is the epoch length, in simulated demand accesses, at
// which a cell's host time is cut and the reference kernel may be read:
// every 2–5 ms of host time.
const refEveryAccesses = 20_000

// runCell simulates one cell with the calls avr.RunBenchmark makes — the
// small preset, Setup, Prime, Run, Finish — plus an epoch recorder whose
// sink cuts a step on the simulator's own goroutine, the only place a
// reading of the reference kernel sees what the simulation sees. Its
// statistics are identical to RunBenchmark's; a test pins that.
func runCell(bench string, d avr.Design) (*cellRun, error) {
	w, err := workloads.ByName(bench)
	if err != nil {
		return nil, err
	}
	sys := sim.New(sim.PresetSmall(d))
	rec := obs.NewRecorder(refEveryAccesses, 1)
	run := &cellRun{steps: startSteps()}
	rec.SetSink(func(obs.Epoch) { run.cut() })
	sys.SetRecorder(rec)
	w.Setup(sys, workloads.ScaleSmall)
	sys.Prime()
	w.Run(sys)
	run.res = sys.Finish(bench)
	run.cut()
	return run, nil
}

// cellSteps strips the statistics off a cell's runs.
func cellSteps(runs []*cellRun) []*steps {
	out := make([]*steps, len(runs))
	for i, r := range runs {
		out[i] = r.steps
	}
	return out
}

// runSimWarmup runs the discarded warm-up cells that are this workload's
// set-up: they page the simulator in and grow the heap before anything
// is timed.
func runSimWarmup(bench string, n int) ([]*cellRun, error) {
	var runs []*cellRun
	for i := 0; i < n; i++ {
		r, err := runCell(bench, avr.Baseline)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// runSimMatrix runs benches × {Baseline, AVR} serially on this goroutine,
// in full passes, until at least seconds of host time and minSimPasses
// passes are done. Every pass after the first must reproduce every
// simulated statistic of the first exactly; a cell that does not is a
// failed op.
func runSimMatrix(benches []string, seconds float64, rec *recorder) (*simResult, error) {
	res := &simResult{}
	for _, b := range benches {
		for _, d := range simDesigns {
			res.cells = append(res.cells, &simCell{bench: b, design: d})
		}
	}
	start := time.Now()
	for res.passes < minSimPasses || time.Since(start).Seconds() < seconds {
		for _, c := range res.cells {
			t0 := time.Now()
			r, err := runCell(c.bench, c.design)
			if err != nil {
				return nil, fmt.Errorf("simulating %s: %w", c.name(), err)
			}
			// The span is the cell net of the kernel readings inside it.
			t1 := t0.Add(time.Duration(r.total() * float64(time.Second)))
			rec.add(rec.op(), rungSim, c.name(), t0, t1, int(r.res.Instructions), 0)
			res.attempted++
			c.runs = append(c.runs, r)
			if res.passes > 0 && !reflect.DeepEqual(r.res, c.first()) {
				res.failed++
				res.diverged = append(res.diverged, fmt.Sprintf("%s pass %d", c.name(), res.passes+1))
			}
		}
		res.passes++
	}
	return res, nil
}

// pair returns the baseline and AVR cells of a benchmark.
func (r *simResult) pair(bench string) (base, avrCell *simCell) {
	for _, c := range r.cells {
		if c.bench != bench {
			continue
		}
		if c.design == avr.AVR {
			avrCell = c
		} else {
			base = c
		}
	}
	return base, avrCell
}

func (r *simResult) benches() []string {
	var out []string
	for _, c := range r.cells {
		if c.design == avr.AVR {
			out = append(out, c.bench)
		}
	}
	return out
}

// traffic is the figure experiments.Fig11 normalises: DRAM bytes both
// ways plus the CMT metadata traffic.
func traffic(r avr.Result) float64 {
	return float64(r.DRAM.BytesRead + r.DRAM.BytesWritten + r.CMTTrafficBytes)
}

// ratios returns the geomean over benchmarks of AVR/Baseline memory
// traffic (Fig. 11) and cycles (Fig. 9). Both are simulated: they repeat
// exactly from run to run and do not depend on the host.
func (r *simResult) ratios() (trafficRatio, cycleRatio float64) {
	var tr, cr []float64
	for _, b := range r.benches() {
		base, a := r.pair(b)
		tr = append(tr, traffic(a.first())/traffic(base.first()))
		cr = append(cr, float64(a.first().Cycles)/float64(base.first().Cycles))
	}
	return geomean(tr), geomean(cr)
}

// best is the cell's host seconds at reference speed with every step at
// its fastest pass. The work is identical every pass, so the fastest
// reading of a step is the least disturbed one.
func (c *simCell) best() float64 { return steadied(cellSteps(c.runs), fastest) }

// cellMs returns, per cell of the design, its host milliseconds (best).
func (r *simResult) cellMs(d avr.Design) []float64 {
	var out []float64
	for _, c := range r.cells {
		if c.design == d {
			out = append(out, 1e3*c.best())
		}
	}
	return out
}

// instPerS is the simulator's speed: the simulated instructions of one
// pass over the host seconds of one pass (best, cell by cell).
func (r *simResult) instPerS() float64 {
	var inst, host float64
	for _, c := range r.cells {
		inst += float64(c.first().Instructions)
		host += c.best()
	}
	return ratio(inst, host)
}

// compressorBlocks is how many 256-value blocks one compressor
// micro-loop span covers.
const compressorBlocks = 512

// runCompressorLoops times the block compressor the simulated LLC calls
// (Compressor.Compress), the flat-pass one the serving codec calls
// (CompressFast) and Decompress, over blocks of a smooth heat field.
// One span covers compressorBlocks blocks; Values carries that count.
func runCompressorLoops(seed uint64, rec *recorder) error {
	vals, err := workloads.GenFloat32("heat", compressorBlocks*compress.BlockValues, seed)
	if err != nil {
		return err
	}
	blocks := make([][compress.BlockValues]uint32, compressorBlocks)
	for i := range blocks {
		for j := range blocks[i] {
			blocks[i][j] = math.Float32bits(vals[i*compress.BlockValues+j])
		}
	}
	c := compress.NewCompressor(compress.DefaultThresholds())
	results := make([]compress.Result, compressorBlocks)
	const rounds = 8
	for round := 0; round < rounds; round++ {
		op := rec.op()
		t0 := time.Now()
		for i := range blocks {
			results[i] = c.Compress(&blocks[i], compress.Float32)
		}
		t1 := time.Now()
		rec.add(op, rungSim, "compress", t0, t1, compressorBlocks, 0)

		ok := 0
		t0 = time.Now()
		for i := range blocks {
			if c.CompressFast(&blocks[i], compress.Float32).OK {
				ok++
			}
		}
		t1 = time.Now()
		rec.add(op, rungSim, "compress_fast", t0, t1, compressorBlocks, 0)

		var sink uint32
		t0 = time.Now()
		for i := range results {
			r := &results[i]
			out := compress.Decompress(&r.Summary, &r.Bitmap, r.Outliers, r.Method, r.Bias, compress.Float32)
			sink ^= out[0]
		}
		t1 = time.Now()
		rec.add(op, rungSim, "decompress", t0, t1, compressorBlocks, 0)
		loopSink = sink + uint32(ok)
	}
	return nil
}

// loopSink keeps the micro-loops' results live so the compiler cannot
// drop the calls.
var loopSink uint32
