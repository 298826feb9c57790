// Command bench is the repository's benchmark: five seeded workloads
// over the serving stack (avrd, the router, the store) and the
// simulator, each verifying what comes back, and a traced mode that
// splits latency by layer. See README.md in this directory.
//
//	bash bench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness, op counts and metrics: the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// report is the JSON object on the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	opt := defaultOptions()
	flag.StringVar(&opt.workload, "workload", "", "workload to run: ingest, read_cold, serve_mixed, cluster_batch or sim_matrix")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated inputs; the tiers see only generated bytes")
	flag.Float64Var(&opt.seconds, "seconds", opt.seconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics from spans around every call into a layer")
	all := flag.Bool("all", false, "run all five workloads, one after the other")
	spansPath := flag.String("spans", "", "traced run: write the spans as JSON lines to this file (default: spans-WORKLOAD-SEED.jsonl in -workdir)")
	flag.StringVar(&opt.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for store segments and span files; created, and emptied of what the run made")
	flag.Parse()

	names := []string{opt.workload}
	if *all {
		names = workloadNames()
	} else if opt.workload == "" {
		fmt.Fprintln(os.Stderr, "bench: -workload or -all is required")
		flag.Usage()
		os.Exit(2)
	}
	failed := false
	for _, name := range names {
		opt.workload = name
		var rep *report
		var err error
		if *trace != 0 {
			path := *spansPath
			if path == "" {
				path = filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, opt.seed))
			}
			rep, err = tracedRun(os.Stdout, opt, path)
		} else {
			rep, err = plainRun(os.Stdout, opt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		failed = failed || !rep.Correct
	}
	if failed {
		// The result line is printed either way; a run with failed ops is
		// reported through "correct": false, not through the exit code.
		fmt.Fprintln(os.Stderr, "bench: some ops failed; see the failure table above")
	}
}

// plainRun is the untraced run: end-to-end metrics, spans off.
func plainRun(w io.Writer, opt options) (*report, error) {
	start := time.Now()
	res, err := run(opt)
	if err != nil {
		return nil, err
	}
	m := endToEnd(res)
	printHeader(w, res, time.Since(start))
	printMetrics(w, "end-to-end", endToEndDefs, m)
	printDetail(w, res)
	return newReport(res.attempted(), res.failed(), endToEndDefs, m), nil
}

// tracedRun is the traced run: the workload's closed loop with a span
// around every client op and its counters read as deltas, then — on the
// serving workloads — the ladder, or — on sim_matrix — the compressor
// micro-loops. Spans stay in memory until everything has run.
func tracedRun(w io.Writer, opt options, spansPath string) (*report, error) {
	start := time.Now()
	opt.rec = newRecorder()
	opt.setups = 1
	opt.seconds /= 2 // the ladder follows the closed loop
	res, err := run(opt)
	if err != nil {
		return nil, err
	}
	m := runLayer(res)
	attempted, failed := res.attempted(), res.failed()
	var lad *ladder
	if res.sim != nil {
		if err := runCompressorLoops(opt.seed, opt.rec); err != nil {
			return nil, err
		}
	} else {
		if lad, err = runLadder(opt); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		attempted += lad.c.acct.attempted
		failed += lad.c.acct.failed
		m["codec.mean_err_over_t1"] = ratio(lad.errSum, float64(lad.errN))
		m["trace.overhead_share"] = ratio(median(lad.onMs)-median(lad.offMs), median(lad.offMs))
	}
	spans := opt.rec.all()
	for _, derive := range []func([]span) map[string]float64{deriveLadder, deriveClient, deriveSim} {
		for k, v := range derive(spans) {
			m[k] = v
		}
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}

	printHeader(w, res, time.Since(start))
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), spansPath)
	printMetrics(w, "per-layer", perLayerDefs, m)
	if lad != nil {
		fmt.Fprintf(w, "\nlatency budget, single client, %s's top tier downwards (us, p50 of each rung differenced)\n", res.w.name)
		io.WriteString(w, budgetTable(spans, topRung(res.w)))
		if lad.c.acct.failed > 0 {
			fmt.Fprintf(w, "\nladder: ")
			io.WriteString(w, lad.c.acct.failureTable())
		}
	}
	printDetail(w, res)
	return newReport(attempted, failed, perLayerDefs, m), nil
}

// topRung is the ladder rung a workload's clients talk to.
func topRung(w *workload) string {
	if w.name == "cluster_batch" {
		return rungRouter
	}
	return rungAvrd
}

func newReport(attempted, failed int, defs []metricDef, m map[string]float64) *report {
	rep := &report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return rep
}

func printHeader(w io.Writer, r *runResult, wall time.Duration) {
	fmt.Fprintf(w, "workload %s  seed %d  timed phase %.2f s  wall %.1f s\n",
		r.opt.workload, r.opt.seed, r.timedS, wall.Seconds())
	if r.sim != nil {
		fmt.Fprintf(w, "simulator: %d benchmarks x {Baseline, AVR}, scale small, serial, %d passes; model validated only against the paper's published figures (EXPERIMENTS.md), no error figure\n",
			len(r.sim.benches()), r.sim.passes)
	} else {
		fmt.Fprintf(w, "closed loop, %d clients, one keep-alive connection each; %d keys x %d KiB raw; flush policy: store default (fsync on segment roll and close)\n",
			clients, len(r.ds.keys), rawKeyBytes>>10)
		fmt.Fprintf(w, "primary = %s; secondary = %s\n", r.w.primaryWhat, r.w.secondaryWhat)
	}
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d\n", r.attempted(), r.failed())
}

func printMetrics(w io.Writer, title string, defs []metricDef, m map[string]float64) {
	fmt.Fprintf(w, "\n%s metrics\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
}

// printDetail prints what explains the metrics: per-op latencies with
// their sample counts and highest supported tail, set-up repeats, the
// realised error of the read-back, and the failure table when any op
// failed.
func printDetail(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\nsetup_s takes every step of the set-up at its median across the repeats; each repeat whole, at reference speed (s): %.4f\n", r.setupS)
	if r.sim != nil {
		fmt.Fprintf(w, "reference kernel: median %.1f us inside the cells (nominal %.0f us)\n", refMedian(r.ref)/1e3, refNominalNs/1e3)
		fmt.Fprintf(w, "host seconds per cell: every %d-access step at its fastest pass, at reference speed; every pass as measured; simulated instructions, cycles\n", refEveryAccesses)
		for _, c := range r.sim.cells {
			var passes []float64
			for _, run := range c.runs {
				passes = append(passes, run.total())
			}
			fmt.Fprintf(w, "  %-18s %8.3f s  %.3f  %12d inst  %12d cycles\n", c.name(), c.best(), passes, c.first().Instructions, c.first().Cycles)
		}
		tr, cr := r.sim.ratios()
		fmt.Fprintf(w, "simulated: traffic ratio %.6f, cycle ratio %.6f (geomean AVR/Baseline)\n", tr, cr)
		for _, d := range r.sim.diverged {
			fmt.Fprintf(w, "FAILED: %s did not reproduce pass 1's statistics\n", d)
		}
		return
	}
	rate, leftOut := keptRate(r.acct.cycles, keepShare, clients)
	fmt.Fprintf(w, "reference kernel: median %.1f us over the timed phase (nominal %.0f us); as measured: work_per_s %.6g, primary p50 %.4f ms, secondary p50 %.4f ms, set-ups %.4f s\n",
		refMedian(r.ref)/1e3, refNominalNs/1e3, rate,
		median(r.acct.pooled(r.w.primary)), median(r.acct.pooled(r.w.secondary)), r.setupRaw)
	fmt.Fprintf(w, "work_per_s is over the fastest %.0f %% of each op kind's cycles; the rest hold %.1f %% of client time; every cycle counted: %.6g values/s as measured\n",
		100*keepShare, 100*leftOut, ratio(float64(r.acct.values), r.timedS))
	fmt.Fprintf(w, "client-observed latency by op, as measured (ms)\n")
	names := make([]string, 0, len(r.acct.lat))
	for n := range r.acct.lat {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.acct.lat[n]
		line := fmt.Sprintf("  %-18s n=%-7d p50 %8.3f", n, len(v), median(v))
		if label, tail := highestTail(v); label != "" {
			line += fmt.Sprintf("  %s %8.3f", label, tail)
		}
		fmt.Fprintln(w, line)
	}
	full := r.acct.perSec
	if n := int(r.timedS); n < len(full) {
		full = full[:n] // an op that completed past the deadline opened a partial second
	}
	fmt.Fprintf(w, "values moved in each full second of the timed phase: %v\n", full)
	fmt.Fprintf(w, "read-back: %d keys, every value bound-checked at t1q; mean |err|/(t1q*|x|) = %.6f\n",
		r.readback.attempted, ratio(r.readback.errSum, float64(r.readback.errN)))
	fmt.Fprintf(w, "wire bytes per value %.4f; live bytes on disk %d over %d raw\n",
		ratio(float64(r.acct.wireBytes), float64(r.acct.values)), r.store.liveBytes, r.store.rawBytes)
	if r.failed() > 0 {
		all := newAccount()
		all.merge(r.acct)
		all.merge(r.readback)
		io.WriteString(w, all.failureTable())
	}
}
