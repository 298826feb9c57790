package experiments

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avr/internal/sim"
	"avr/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden reports under testdata/small from this build")

// shared is the one memoised small-scale runner the report tests read, so
// a unit two reports both need simulates once per `go test` process.
// Tests that count simulations build their own.
var shared = NewRunner(workloads.ScaleSmall)

// checkGolden compares a report with the bytes the parent of PR 23
// rendered (testdata/small/<id>.txt and .csv): the byte-identity every
// change to the engine or the simulator has to keep, or own up to with
// -update.
func checkGolden(t *testing.T, rep Report) {
	t.Helper()
	for ext, got := range map[string]string{".txt": rep.Text, ".csv": rep.CSV} {
		path := filepath.Join("testdata", "small", rep.ID+ext)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the golden file:\n--- got ---\n%s--- want ---\n%s", path, got, want)
		}
	}
}

func TestMeanRelativeError(t *testing.T) {
	cases := []struct {
		exact, approx []float64
		want          float64
	}{
		{[]float64{1, 2, 4}, []float64{1, 2, 4}, 0},
		{[]float64{100}, []float64{101}, 0.01},
		{[]float64{10, 10}, []float64{11, 9}, 0.1},
		{nil, nil, 0},
	}
	for i, c := range cases {
		got := MeanRelativeError(c.exact, c.approx)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

func TestMeanRelativeErrorFloor(t *testing.T) {
	// Near-zero exact values are floored instead of exploding.
	exact := []float64{1000, 0}
	approx := []float64{1000, 0.001}
	e := MeanRelativeError(exact, approx)
	if math.IsInf(e, 0) || e > 0.01 {
		t.Errorf("floored error = %v", e)
	}
}

func TestMeanRelativeErrorLengthMismatch(t *testing.T) {
	// Shorter approx is compared prefix-wise rather than panicking.
	e := MeanRelativeError([]float64{1, 2, 3}, []float64{1, 2})
	if e != 0 {
		t.Errorf("prefix comparison error = %v", e)
	}
}

func TestBenchmarksOrder(t *testing.T) {
	b := Benchmarks()
	want := []string{"heat", "lattice", "lbm", "orbit", "kmeans", "bscholes", "wrf"}
	if len(b) != len(want) {
		t.Fatalf("benchmarks = %v", b)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("benchmarks[%d] = %q, want %q", i, b[i], want[i])
		}
	}
}

func TestRenderTableAlignment(t *testing.T) {
	text, csv := renderTable(
		[]string{"a", "long-header"},
		[][]string{{"x", "1"}, {"longer-cell", "2"}},
	)
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("text = %q", text)
	}
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Errorf("rows not aligned:\n%s", text)
	}
	if !strings.Contains(csv, "a,long-header\n") {
		t.Errorf("csv = %q", csv)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{0, 4}); math.IsNaN(g) || math.IsInf(g, 0) {
		t.Errorf("geomean with zero = %v", g)
	}
}

func TestRunnerMemoises(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	e1, err := r.Run("heat", sim.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Run("heat", sim.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("second Run did not return the memoised entry")
	}
}

func TestRunnerUnknownBenchmark(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	if _, err := r.Run("nope", sim.Baseline); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestOutputErrorBaselineIsZero(t *testing.T) {
	e, err := shared.OutputError("heat", sim.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("baseline self-error = %v", e)
	}
}

func TestByIDUnknown(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	if _, err := r.ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("ids = %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestOverheadReportStatic(t *testing.T) {
	rep, err := shared.ByID("overhead")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "93 bits") {
		t.Errorf("overhead text missing CMT bits:\n%s", rep.Text)
	}
}

// TestFullMatrixReports regenerates every experiment end to end and
// requires each to match its golden file byte for byte. This is the
// repo's heaviest integration test; skipped in -short mode. Its
// Doppelgänger-orbit >100 % check holds at ScaleSmall only: at
// ScaleSlice that error is 0.3 % (ROADMAP item 20).
func TestFullMatrixReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	r := shared
	if err := r.PrefetchAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		rep, err := r.ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, rep)
	}

	// Spot-check the headline claims of the paper hold in shape.
	base, _ := r.Run("heat", sim.Baseline)
	avr, _ := r.Run("heat", sim.AVR)
	if avr.Result.Cycles >= base.Result.Cycles {
		t.Error("AVR not faster than baseline on heat")
	}
	if avr.Result.DRAM.TotalBytes() >= base.Result.DRAM.TotalBytes()*2/3 {
		t.Error("AVR traffic reduction on heat below 33%")
	}
	if e, _ := r.OutputError("heat", sim.AVR); e > 0.01 {
		t.Errorf("heat AVR error %v > 1%%", e)
	}
	// ZeroAVR must be within a few percent of baseline (no overhead when
	// not approximating).
	zero, _ := r.Run("heat", sim.ZeroAVR)
	ratio := float64(zero.Result.Cycles) / float64(base.Result.Cycles)
	if ratio > 1.05 || ratio < 0.95 {
		t.Errorf("ZeroAVR overhead = %.3f, want ≈1.0", ratio)
	}
	// Doppelgänger must blow up on orbit (the paper's >100%).
	if e, _ := r.OutputError("orbit", sim.Dganger); e < 1 {
		t.Errorf("dganger orbit error %v, want >100%%", e)
	}
}
