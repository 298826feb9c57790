// Command avrtables regenerates the paper's evaluation tables and
// figures (Tables 3–4, Figures 9–15, plus the §4.2 overhead accounting)
// by running the full benchmark × design matrix.
//
// Usage:
//
//	avrtables                 # every experiment at small scale
//	avrtables -exp fig11      # one experiment
//	avrtables -scale slice    # Table 1 slice configuration (slower)
//	avrtables -csv out/       # also write CSV files
//	avrtables -q              # suppress per-run progress lines
//	avrtables -debug-addr :0  # live pprof while the matrix runs
//
// Runs spread over GOMAXPROCS workers (GOMAXPROCS=n avrtables bounds the
// pool). Results are bit-identical for every pool size: the simulated
// clocks are deterministic and reports render from a memoised matrix.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"avr/internal/cliutil"
	"avr/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+") or 'all'")
	var scale, debugAddr string
	cliutil.RegisterScale(flag.CommandLine, &scale)
	cliutil.RegisterDebug(flag.CommandLine, &debugAddr)
	csvDir := flag.String("csv", "", "directory to write CSV files into (optional)")
	quiet := flag.Bool("q", false, "suppress per-run progress lines")
	flag.Parse()

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
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "matrix complete in %v (%d runs)\n\n",
			time.Since(start).Round(time.Second), r.Simulations())
	}

	for _, id := range ids {
		rep, err := r.ByID(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("== %s ==\n%s\n", rep.Title, rep.Text)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, rep.ID+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
