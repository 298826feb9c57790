package experiments

import (
	"strings"
	"testing"

	"avr/internal/lossless"
	"avr/internal/sim"
)

// TestLLCSweepReport exercises the capacity sweep end to end and checks
// its core claim: AVR's normalised traffic stays below 1 at every
// capacity.
func TestLLCSweepReport(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := shared.ByID("llcsweep")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "64kB") || !strings.Contains(rep.Text, "1024kB") {
		t.Errorf("sweep missing capacities:\n%s", rep.Text)
	}
	for _, line := range strings.Split(rep.CSV, "\n") {
		cells := strings.Split(line, ",")
		if len(cells) < 3 || cells[0] == "LLC" || cells[0] == "" {
			continue
		}
		if !strings.HasPrefix(cells[2], "0.") {
			t.Errorf("AVR traffic not below baseline at %s: %s", cells[0], cells[2])
		}
	}
}

// TestMulticoreReport checks the scaling experiment produces all rows
// and that AVR at 2 cores beats AVR at 1 core.
func TestMulticoreReport(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore")
	}
	r := shared
	rep, err := r.ByID("multicore")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Count(rep.CSV, "\n") - 1
	if rows != len(multicoreCounts)*2 {
		t.Errorf("multicore rows = %d, want %d:\n%s", rows, len(multicoreCounts)*2, rep.Text)
	}
	got, err := r.resolve(r.multicoreUnits())
	if err != nil {
		t.Fatal(err)
	}
	one := got.of(r.multicoreUnit("heat", sim.AVR, 1)).Result.Cycles
	two := got.of(r.multicoreUnit("heat", sim.AVR, 2)).Result.Cycles
	if two >= one {
		t.Errorf("2-core AVR (%d) not faster than 1-core (%d)", two, one)
	}
}

// TestLosslessReport checks the BDI stacking experiment: BDI must help
// the baseline on wrf (mostly exact data), and AVR+BDI must beat plain
// AVR there.
func TestLosslessReport(t *testing.T) {
	if testing.Short() {
		t.Skip("lossless")
	}
	r := shared
	if _, err := r.ByID("lossless"); err != nil {
		t.Fatal(err)
	}
	got, err := r.resolve(r.losslessUnits())
	if err != nil {
		t.Fatal(err)
	}
	withBDI := func(d sim.Design) *Entry {
		return got.of(r.losslessUnit("wrf", losslessVariant{design: d, link: true, algo: lossless.BDI}))
	}
	base, bdi := got.of(r.matrix("wrf", sim.Baseline)), withBDI(sim.Baseline)
	avr, stacked := got.of(r.matrix("wrf", sim.AVR)), withBDI(sim.AVR)
	if bdi.Result.DRAM.TotalBytes() >= base.Result.DRAM.TotalBytes() {
		t.Error("BDI did not reduce wrf baseline traffic")
	}
	if stacked.Result.DRAM.TotalBytes() >= avr.Result.DRAM.TotalBytes() {
		t.Error("BDI stacked on AVR did not reduce wrf traffic further")
	}
}

// TestAblationReport checks the ablation table renders with every
// variant present.
func TestAblationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation")
	}
	rep, err := shared.ByID("ablation")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ablationVariants() {
		if !strings.Contains(rep.Text, v.name) {
			t.Errorf("ablation missing variant %s", v.name)
		}
	}
}

// TestHistogramsReport smoke-tests the appendix report end to end.
func TestHistogramsReport(t *testing.T) {
	rep, err := shared.ByID("histograms")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dram_latency", "compressed_block_lines", "outliers_per_block", "reconstruction_error"} {
		if !strings.Contains(rep.Text, want) {
			t.Errorf("histograms report missing %s:\n%s", want, rep.Text)
		}
	}
}
