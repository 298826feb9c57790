// Command avrsim runs one benchmark on one memory-system design and
// prints the full statistics of the run.
//
// Usage:
//
//	avrsim -bench heat -design AVR [-scale small|slice] [-t1 0.03125]
//	avrsim -json                  # machine-readable result (with histograms)
//	avrsim -debug-addr :6060      # live expvar + pprof while running
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"time"

	"avr/internal/cliutil"
	"avr/internal/compress"
	"avr/internal/experiments"
	"avr/internal/sim"
	"avr/internal/workloads"
)

func main() {
	f := cliutil.Register(flag.CommandLine)
	t1 := flag.Float64("t1", compress.DefaultThresholds().T1, "per-value error threshold T1 (T2 = T1/2)")
	cores := flag.Int("cores", 1, "simulate an n-core shared-LLC CMP (heat, kmeans, bscholes only)")
	jsonOut := flag.Bool("json", false, "print the full result as JSON (enables histogram collection)")
	flag.Parse()

	_, sc, cfg, err := f.ResolveRun()
	if err != nil {
		cliutil.Fatal(err)
	}
	cfg.Thresholds = compress.Thresholds{T1: *t1, T2: *t1 / 2}
	if *jsonOut {
		cfg.Histograms = true
	}
	cliutil.StartDebug(f.DebugAddr)

	if *cores > 1 {
		runMulticore(f.Bench, experiments.SharedCMP(cfg), *cores, sc, *jsonOut)
		return
	}

	start := time.Now()
	e, err := experiments.Simulate(f.Bench, cfg, sc)
	if err != nil {
		cliutil.Fatal(err)
	}
	wall := time.Since(start)
	r := e.Result

	if *jsonOut {
		printJSON(r)
		return
	}

	fmt.Printf("benchmark        %s (%s scale)\n", r.Benchmark, sc)
	fmt.Printf("design           %s\n", r.Design)
	fmt.Printf("simulated cycles %d (%.2f ms at 3.2 GHz)\n", r.Cycles, float64(r.Cycles)/3.2e6)
	fmt.Printf("instructions     %d (IPC %.2f)\n", r.Instructions, r.IPC)
	fmt.Printf("wall time        %v\n", wall.Round(time.Millisecond))
	fmt.Printf("AMAT             %.2f cycles\n", r.AMAT)
	fmt.Printf("LLC requests     %d, misses %d (MPKI %.2f)\n", r.LLCRequests, r.LLCMisses, r.MPKI)
	fmt.Printf("DRAM traffic     %.2f MB read, %.2f MB written (%.2f MB approx)\n",
		float64(r.DRAM.BytesRead)/1e6, float64(r.DRAM.BytesWritten)/1e6, float64(r.DRAM.ApproxBytes)/1e6)
	fmt.Printf("DRAM row hits    %d / %d accesses\n", r.DRAM.RowHits, r.DRAM.Reads+r.DRAM.Writes)
	fmt.Printf("energy           %.4f J (core %.4f, L1+L2 %.4f, LLC %.4f, DRAM %.4f, compressor %.6f)\n",
		r.Energy.Total(), r.Energy.Core, r.Energy.L1L2, r.Energy.LLC, r.Energy.DRAM, r.Energy.Compressor)
	if r.CMTTrafficBytes > 0 {
		fmt.Printf("CMT traffic      %.3f MB\n", float64(r.CMTTrafficBytes)/1e6)
	}
	if r.Design == sim.AVR {
		fmt.Printf("compression      ratio %.1f:1, footprint %.1f%% of baseline\n",
			r.CompressionRatio, r.FootprintFraction*100)
	}
	if st := r.AVRStats; st != nil {
		fmt.Printf("AVR requests     miss %d, uncompressed-hit %d, dbuf-hit %d, compressed-hit %d\n",
			st.ApproxMiss, st.ApproxUncompHit, st.ApproxDBUFHit, st.ApproxCompHit)
		fmt.Printf("AVR evictions    recompress %d, lazy-wb %d, fetch+recompress %d, uncompressed-wb %d\n",
			st.EvRecompress, st.EvLazyWB, st.EvFetchRecompress, st.EvUncompWB)
		fmt.Printf("AVR compressor   %d compressions, %d decompressions, %d PFE prefetches\n",
			st.Compresses, st.Decompresses, st.Prefetches)
	}
	if r.DgDedups > 0 {
		fmt.Printf("dedups           %d\n", r.DgDedups)
	}
}

// printJSON emits any result as indented JSON on stdout.
func printJSON(v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		cliutil.Fatal(err)
	}
	fmt.Println(string(data))
}

// runMulticore executes the benchmark on an n-core CMP sharing cfg's
// LLC and DRAM and prints the aggregate statistics.
func runMulticore(bench string, cfg sim.Config, n int, sc workloads.Scale, jsonOut bool) {
	start := time.Now()
	r, err := experiments.SimulateMulti(bench, cfg, n, sc)
	if err != nil {
		cliutil.Fatal(err)
	}
	if jsonOut {
		printJSON(r)
		return
	}
	fmt.Printf("benchmark        %s on %d cores (shared %d kB LLC)\n", bench, n, cfg.LLCBytes>>10)
	fmt.Printf("design           %s\n", r.Design)
	fmt.Printf("simulated cycles %d (slowest core)\n", r.Cycles)
	fmt.Printf("per-core cycles  %v\n", r.PerCore)
	fmt.Printf("instructions     %d total (aggregate IPC %.2f)\n", r.Instructions, r.Result.IPC)
	fmt.Printf("wall time        %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("DRAM traffic     %.2f MB read, %.2f MB written\n",
		float64(r.Result.DRAM.BytesRead)/1e6, float64(r.Result.DRAM.BytesWritten)/1e6)
	if r.Result.Design == sim.AVR {
		fmt.Printf("compression      ratio %.1f:1\n", r.Result.CompressionRatio)
	}
}
