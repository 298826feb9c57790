// Package experiments regenerates every table and figure of the paper's
// evaluation (§4.3): it runs the benchmark × design matrix, measures
// application output error against the exact baseline run, and renders
// each experiment as an aligned text table plus CSV.
package experiments

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"avr/internal/sim"
	"avr/internal/workloads"
)

// Entry is one completed simulation run.
type Entry struct {
	Result sim.Result
	Output []float64
}

// Runner executes and memoises runs. All methods are safe for concurrent
// use: each distinct run has one memo slot, so it simulates exactly once
// however many callers race on it, and resolve spreads the runs nobody
// has started across a GOMAXPROCS-wide pool.
type Runner struct {
	// Scale selects the input scale and, through its preset, each
	// design's system configuration for all runs.
	Scale workloads.Scale
	// Logger, when non-nil, receives one structured line per simulated
	// run, named by its label, so long sweeps are observable.
	Logger *slog.Logger

	mu    sync.Mutex
	slots map[spec]*slot

	simulations, done atomic.Int64
}

// NewRunner creates a runner at the given scale.
func NewRunner(sc workloads.Scale) *Runner {
	return &Runner{Scale: sc, slots: make(map[spec]*slot)}
}

// matrix is the unit of the benchmark × design matrix: bench on design
// d's preset.
func (r *Runner) matrix(bench string, d sim.Design) unit {
	return unit{spec{bench: bench, cfg: r.Scale.Preset(d)}, bench + "/" + d.String()}
}

// matrixUnits declares benches × designs.
func (r *Runner) matrixUnits(benches []string, designs []sim.Design) []unit {
	var us []unit
	for _, b := range benches {
		for _, d := range designs {
			us = append(us, r.matrix(b, d))
		}
	}
	return us
}

// Run executes one benchmark on one design (memoised, deduplicated).
func (r *Runner) Run(bench string, d sim.Design) (*Entry, error) {
	return r.run(r.slotFor(r.matrix(bench, d)))
}

// Prefetch runs the given benchmarks × designs across the worker pool to
// warm the memo.
func (r *Runner) Prefetch(benches []string, designs []sim.Design) error {
	_, err := r.resolve(r.matrixUnits(benches, designs))
	return err
}

// PrefetchAll warms every run any experiment declares in one pool pass.
func (r *Runner) PrefetchAll() error {
	var us []unit
	for _, x := range registry {
		us = append(us, x.units(r)...)
	}
	_, err := r.resolve(us)
	return err
}

// OutputError computes the paper's quality metric — the mean of the
// relative errors of each output value — for a design against the exact
// baseline run of the same benchmark.
func (r *Runner) OutputError(bench string, d sim.Design) (float64, error) {
	base, err := r.Run(bench, sim.Baseline)
	if err != nil {
		return 0, err
	}
	e, err := r.Run(bench, d)
	if err != nil {
		return 0, err
	}
	return MeanRelativeError(base.Output, e.Output), nil
}

// MeanRelativeError is the quality metric: mean over output values of
// |approx−exact| / max(|exact|, floor), where the floor is a small
// fraction of the output's mean magnitude so near-zero outputs do not
// produce spurious infinite errors.
func MeanRelativeError(exact, approx []float64) float64 {
	n := len(exact)
	if len(approx) < n {
		n = len(approx)
	}
	if n == 0 {
		return 0
	}
	var magSum float64
	for i := 0; i < n; i++ {
		magSum += math.Abs(exact[i])
	}
	floor := 1e-3 * magSum / float64(n)
	if floor == 0 {
		floor = 1e-12
	}
	var errSum float64
	for i := 0; i < n; i++ {
		den := math.Abs(exact[i])
		if den < floor {
			den = floor
		}
		errSum += math.Abs(approx[i]-exact[i]) / den
	}
	return errSum / float64(n)
}

// Benchmarks lists the benchmark names in the paper's order.
func Benchmarks() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name())
	}
	return out
}

// Report is a rendered experiment: the paper artefact it reproduces, an
// aligned text table, and the same data as CSV.
type Report struct {
	ID    string
	Title string
	Text  string
	CSV   string
}

// renderTable aligns a header row and data rows into a text table and
// CSV.
func renderTable(header []string, rows [][]string) (string, string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var text, csv strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				text.WriteString("  ")
				csv.WriteString(",")
			}
			fmt.Fprintf(&text, "%-*s", widths[i], c)
			csv.WriteString(c)
		}
		text.WriteString("\n")
		csv.WriteString("\n")
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	return text.String(), csv.String()
}

// geomean computes the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		if v <= 0 {
			v = 1e-9
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// experiment is one registry row: the runs the report needs, declared as
// units, and the renderer that reads them back as a header and rows.
// IDs, ByID and PrefetchAll all derive from the registry.
type experiment struct {
	id, title string
	units     func(r *Runner) []unit
	render    func(r *Runner, got results) (header []string, rows [][]string)
}

var registry = []experiment{
	{"table3", "Table 3: Application output error",
		matrixOf(sim.Baseline, sim.Dganger, sim.Truncate, sim.AVR), table3},
	{"table4", "Table 4: AVR compression ratio and memory footprint", matrixOf(sim.AVR), table4},
	{"fig9", "Figure 9: Execution time (normalised to baseline)", matrixOf(figureDesigns...),
		normalised(func(e *Entry) float64 { return float64(e.Result.Cycles) })},
	{"fig10", "Figure 10: System energy (normalised to baseline, by component)", matrixOf(sim.Designs...), fig10},
	{"fig11", "Figure 11: Memory traffic (normalised to baseline)", matrixOf(figureDesigns...), fig11},
	{"fig12", "Figure 12: Average memory access time (normalised to baseline)", matrixOf(figureDesigns...),
		normalised(func(e *Entry) float64 { return e.Result.AMAT })},
	{"fig13", "Figure 13: LLC misses per kilo-instruction (normalised to baseline)", matrixOf(figureDesigns...),
		normalised(func(e *Entry) float64 { return e.Result.MPKI })},
	{"fig14", "Figure 14: AVR LLC requests on approximate cachelines", matrixOf(sim.AVR), fig14},
	{"fig15", "Figure 15: AVR LLC evictions of approximate cachelines", matrixOf(sim.AVR), fig15},
	{"overhead", "Section 4.2: AVR hardware overhead", matrixOf(), overhead},

	// Beyond the paper: each row names the document that reads it.
	// Read by EXPERIMENTS.md "Ablations".
	{"ablation", "Ablation: AVR mechanisms on/off (normalised to baseline)", (*Runner).ablationUnits, ablation},
	// Read by EXPERIMENTS.md "LLC capacity sweep".
	{"llcsweep", "LLC capacity sweep: AVR vs baseline on heat (normalised per capacity)",
		(*Runner).llcSweepUnits, llcSweep},
	// Read by EXPERIMENTS.md "Multicore scaling".
	{"multicore", "Multicore scaling: heat on a shared-LLC CMP (speedup vs same design at 1 core)",
		(*Runner).multicoreUnits, multicore},
	// Read by EXPERIMENTS.md "Lossless stacking".
	{"lossless", "Lossless link layer (BDI/FPC) alone and stacked on AVR (normalised to baseline)",
		(*Runner).losslessUnits, losslessReport},
	// Read by ROADMAP item 21 (its exit asks for a finite p99 per cell).
	{"histograms", "Appendix: latency / compression / error distributions (AVR)",
		(*Runner).histogramUnits, histograms},
}

// ByID runs one experiment by its identifier: its units resolve on the
// pool first, so the serial render only reads the memo and the output
// bytes never depend on scheduling.
func (r *Runner) ByID(id string) (Report, error) {
	want := strings.ToLower(id)
	for _, x := range registry {
		if x.id != want {
			continue
		}
		got, err := r.resolve(x.units(r))
		if err != nil {
			return Report{}, err
		}
		text, csv := renderTable(x.render(r, got))
		return Report{ID: x.id, Title: x.title, Text: text, CSV: csv}, nil
	}
	return Report{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists all experiment identifiers, sorted.
func IDs() []string {
	var ids []string
	for _, x := range registry {
		ids = append(ids, x.id)
	}
	sort.Strings(ids)
	return ids
}

// comparisonDesigns are the non-baseline designs shown in the figures;
// figureDesigns adds the baseline they normalise against.
var (
	comparisonDesigns = []sim.Design{sim.Dganger, sim.Truncate, sim.ZeroAVR, sim.AVR}
	figureDesigns     = append([]sim.Design{sim.Baseline}, comparisonDesigns...)
)

// matrixOf declares every benchmark on each of the given designs.
func matrixOf(designs ...sim.Design) func(*Runner) []unit {
	return func(r *Runner) []unit { return r.matrixUnits(Benchmarks(), designs) }
}

// normalised renders one "normalised to baseline" figure (Figs. 9, 12,
// 13): metric(design)/metric(baseline) per benchmark plus the geometric
// mean.
func normalised(metric func(*Entry) float64) func(*Runner, results) ([]string, [][]string) {
	return func(r *Runner, got results) ([]string, [][]string) {
		benches := Benchmarks()
		header := append([]string{"design"}, append(append([]string{}, benches...), "geomean")...)
		var rows [][]string
		for _, d := range comparisonDesigns {
			row := []string{d.String()}
			var vals []float64
			for _, b := range benches {
				v := 1.0
				if m := metric(got.of(r.matrix(b, sim.Baseline))); m != 0 {
					v = metric(got.of(r.matrix(b, d))) / m
				}
				vals = append(vals, v)
				row = append(row, fmt.Sprintf("%.3f", v))
			}
			row = append(row, fmt.Sprintf("%.3f", geomean(vals)))
			rows = append(rows, row)
		}
		return header, rows
	}
}

// table3 reproduces "Application output error".
func table3(r *Runner, got results) ([]string, [][]string) {
	benches := Benchmarks()
	header := append([]string{"design"}, benches...)
	var rows [][]string
	for _, d := range []sim.Design{sim.Dganger, sim.Truncate, sim.AVR} {
		row := []string{d.String()}
		for _, b := range benches {
			e := MeanRelativeError(got.of(r.matrix(b, sim.Baseline)).Output, got.of(r.matrix(b, d)).Output)
			switch {
			case e < 0.0005:
				row = append(row, "<0.05%")
			case e > 1:
				row = append(row, ">100%")
			default:
				row = append(row, fmt.Sprintf("%.1f%%", e*100))
			}
		}
		rows = append(rows, row)
	}
	return header, rows
}

// table4 reproduces "AVR compression ratio and footprint reduction".
func table4(r *Runner, got results) ([]string, [][]string) {
	benches := Benchmarks()
	header := append([]string{"metric"}, benches...)
	ratio := []string{"Compr. Ratio"}
	foot := []string{"Mem. Footprint"}
	for _, b := range benches {
		e := got.of(r.matrix(b, sim.AVR))
		ratio = append(ratio, fmt.Sprintf("%.1fx", e.Result.CompressionRatio))
		foot = append(foot, fmt.Sprintf("%.1f%%", e.Result.FootprintFraction*100))
	}
	return header, [][]string{ratio, foot}
}

// fig10 reproduces the system energy breakdown normalised to baseline.
func fig10(r *Runner, got results) ([]string, [][]string) {
	header := []string{"benchmark", "design", "core", "L1+L2", "LLC", "DRAM", "compressor", "total"}
	var rows [][]string
	for _, b := range Benchmarks() {
		bt := got.of(r.matrix(b, sim.Baseline)).Result.Energy.Total()
		for _, d := range sim.Designs {
			en := got.of(r.matrix(b, d)).Result.Energy
			rows = append(rows, []string{
				b, d.String(),
				fmt.Sprintf("%.3f", en.Core/bt),
				fmt.Sprintf("%.3f", en.L1L2/bt),
				fmt.Sprintf("%.3f", en.LLC/bt),
				fmt.Sprintf("%.3f", en.DRAM/bt),
				fmt.Sprintf("%.3f", en.Compressor/bt),
				fmt.Sprintf("%.3f", en.Total()/bt),
			})
		}
	}
	return header, rows
}

// fig11 reproduces DRAM traffic normalised to baseline, with the
// approx/non-approx split.
func fig11(r *Runner, got results) ([]string, [][]string) {
	header := []string{"benchmark", "design", "total", "approx", "non-approx"}
	var rows [][]string
	for _, b := range Benchmarks() {
		base := got.of(r.matrix(b, sim.Baseline))
		baseTotal := float64(base.Result.DRAM.TotalBytes() + base.Result.CMTTrafficBytes)
		for _, d := range comparisonDesigns {
			e := got.of(r.matrix(b, d))
			total := float64(e.Result.DRAM.TotalBytes() + e.Result.CMTTrafficBytes)
			approx := float64(e.Result.DRAM.ApproxBytes)
			rows = append(rows, []string{
				b, d.String(),
				fmt.Sprintf("%.3f", total/baseTotal),
				fmt.Sprintf("%.3f", approx/baseTotal),
				fmt.Sprintf("%.3f", (total-approx)/baseTotal),
			})
		}
	}
	return header, rows
}

// fig14 reproduces the AVR LLC request breakdown on approximate
// cachelines.
func fig14(r *Runner, got results) ([]string, [][]string) {
	header := []string{"benchmark", "miss", "uncompressed-hit", "dbuf-hit", "compressed-hit"}
	var rows [][]string
	for _, b := range Benchmarks() {
		st := got.of(r.matrix(b, sim.AVR)).Result.AVRStats
		total := float64(st.ApproxMiss + st.ApproxUncompHit + st.ApproxDBUFHit + st.ApproxCompHit)
		if total == 0 {
			total = 1
		}
		rows = append(rows, []string{
			b,
			fmt.Sprintf("%.1f%%", 100*float64(st.ApproxMiss)/total),
			fmt.Sprintf("%.1f%%", 100*float64(st.ApproxUncompHit)/total),
			fmt.Sprintf("%.1f%%", 100*float64(st.ApproxDBUFHit)/total),
			fmt.Sprintf("%.1f%%", 100*float64(st.ApproxCompHit)/total),
		})
	}
	return header, rows
}

// fig15 reproduces the AVR LLC eviction breakdown.
func fig15(r *Runner, got results) ([]string, [][]string) {
	header := []string{"benchmark", "recompress", "lazy-writeback", "fetch+recompress", "uncompressed-wb"}
	var rows [][]string
	for _, b := range Benchmarks() {
		st := got.of(r.matrix(b, sim.AVR)).Result.AVRStats
		total := float64(st.EvRecompress + st.EvLazyWB + st.EvFetchRecompress + st.EvUncompWB)
		if total == 0 {
			total = 1
		}
		rows = append(rows, []string{
			b,
			fmt.Sprintf("%.1f%%", 100*float64(st.EvRecompress)/total),
			fmt.Sprintf("%.1f%%", 100*float64(st.EvLazyWB)/total),
			fmt.Sprintf("%.1f%%", 100*float64(st.EvFetchRecompress)/total),
			fmt.Sprintf("%.1f%%", 100*float64(st.EvUncompWB)/total),
		})
	}
	return header, rows
}

// overhead reproduces the §4.2 hardware overhead accounting; it needs no
// runs.
func overhead(r *Runner, _ results) ([]string, [][]string) {
	cfg := r.Scale.Preset(sim.AVR)
	llcLines := cfg.LLCBytes / 64
	extraBits := llcLines * 18 // tag-array + BPA additions per entry
	return []string{"structure", "overhead"}, [][]string{
		{"CMT + TLB bit per page", "93 bits (4×23 + 1)"},
		{"LLC tag+BPA additions", fmt.Sprintf("%d kB (18 b/entry, %.1f%% of LLC)",
			extraBits/8/1024, 100*float64(extraBits/8)/float64(cfg.LLCBytes))},
		{"Compressor module", "~200k cells (synthesis, from paper)"},
	}
}
