// Command avrsim runs the memory-system simulator.
//
// Subcommands:
//
//	avrsim run -bench heat -design AVR [-scale small|slice] [-t1 0.03125] [-cores N] [-json]
//	    Run one benchmark on one design and print the full statistics of
//	    the run; -json prints the result as JSON (with histograms), -cores
//	    simulates an n-core shared-LLC CMP.
//
//	avrsim tables [-exp fig11] [-scale slice] [-csv out/] [-q]
//	    Regenerate the paper's evaluation tables and figures (Tables 3–4,
//	    Figures 9–15, plus the §4.2 overhead accounting) by running the
//	    full benchmark × design matrix. Runs spread over GOMAXPROCS
//	    workers; results are bit-identical for every pool size, since the
//	    simulated clocks are deterministic and reports render from a
//	    memoised matrix.
//
//	avrsim trace -bench heat -design AVR [-every 100000] [-format csv|jsonl]
//	    Run one benchmark and stream an epoch time series of the memory
//	    system's behaviour — per-epoch deltas and cumulative totals of
//	    cycles, instructions, DRAM traffic, LLC misses and (for AVR)
//	    compression activity, one epoch every N demand accesses. The
//	    final (partial) epoch includes the end-of-run flush, so
//	    per-counter sums over the series equal the totals run reports.
//
// Every subcommand takes -debug-addr :6060 to serve live expvar and
// pprof while it runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"avr/internal/cliutil"
	"avr/internal/compress"
	"avr/internal/experiments"
	"avr/internal/obs"
	"avr/internal/sim"
	"avr/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "tables":
		cmdTables(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: avrsim {run|tables|trace} [flags]")
	os.Exit(2)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	f := cliutil.Register(fs)
	t1 := fs.Float64("t1", compress.DefaultThresholds().T1, "per-value error threshold T1 (T2 = T1/2)")
	cores := fs.Int("cores", 1, "simulate an n-core shared-LLC CMP (heat, kmeans, bscholes only)")
	jsonOut := fs.Bool("json", false, "print the full result as JSON (enables histogram collection)")
	fs.Parse(args)

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

func cmdTables(args []string) {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
	var scale, debugAddr string
	cliutil.RegisterScale(fs, &scale)
	cliutil.RegisterDebug(fs, &debugAddr)
	csvDir := fs.String("csv", "", "directory to write CSV files into (optional)")
	quiet := fs.Bool("q", false, "suppress per-run progress lines")
	fs.Parse(args)

	sc, err := cliutil.ResolveScale(scale)
	if err != nil {
		cliutil.Fatal(err)
	}
	cliutil.StartDebug(debugAddr)
	r := experiments.NewRunner(sc)
	if !*quiet {
		r.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}

	// Warm every run up front, sharded across the pool; the experiments
	// then render from the memoised matrix. A single requested
	// experiment skips this — ByID resolves just its own units.
	start := time.Now()
	if *exp == "all" {
		fmt.Fprintf(os.Stderr, "running benchmark x design matrix and sweeps (%s scale, %d workers)...\n",
			sc, runtime.GOMAXPROCS(0))
		if err := r.PrefetchAll(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "matrix complete in %v (%d runs)\n\n",
			time.Since(start).Round(time.Second), r.Simulations())
	}

	for _, id := range ids {
		rep, err := r.ByID(strings.TrimSpace(id))
		if err != nil {
			fail(err)
		}
		fmt.Printf("== %s ==\n%s\n", rep.Title, rep.Text)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fail(err)
			}
			if err := os.WriteFile(filepath.Join(*csvDir, rep.ID+".csv"), []byte(rep.CSV), 0o644); err != nil {
				fail(err)
			}
		}
	}
}

// fail prints a runtime error and exits 1 (cliutil.Fatal's 2 is for bad
// flags).
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	f := cliutil.Register(fs)
	every := fs.Uint64("every", 100000, "epoch length in demand accesses")
	format := fs.String("format", "csv", "output format: csv or jsonl")
	fs.Parse(args)

	_, sc, cfg, err := f.ResolveRun()
	if err != nil {
		cliutil.Fatal(err)
	}
	w, err := workloads.ByName(f.Bench)
	if err != nil {
		cliutil.Fatal(err)
	}
	out := bufio.NewWriter(os.Stdout)
	ew, err := obs.NewEpochWriter(*format, out)
	if err != nil {
		cliutil.Fatal(err)
	}
	cliutil.StartDebug(f.DebugAddr)

	sys := sim.New(cfg)
	// Epochs stream through the sink as they complete; the ring only
	// needs to hold the one being handed over.
	rec := obs.NewRecorder(*every, 1)
	rec.SetSink(func(e obs.Epoch) {
		if err := ew.WriteEpoch(e); err != nil {
			cliutil.Fatal(err)
		}
	})
	sys.SetRecorder(rec)

	w.Setup(sys, sc)
	sys.Prime()
	w.Run(sys)
	sys.Finish(f.Bench)

	if err := ew.Flush(); err != nil {
		cliutil.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		cliutil.Fatal(err)
	}
}
