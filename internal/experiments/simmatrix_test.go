package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"avr/internal/sim"
	"avr/internal/workloads"
)

var simMatrixPath = filepath.Join("testdata", "small", "sim_matrix.sha256")

// digestLine is a cell's line of sim_matrix.sha256: the SHA-256 of its
// Result JSON, then the cell's name.
func digestLine(t *testing.T, e *Entry, bench string, d sim.Design) string {
	t.Helper()
	js, err := json.Marshal(e.Result)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x  %s/%s\n", sha256.Sum256(js), bench, d)
}

// TestSimMatrixDigests pins every simulated counter of the paper's
// matrix — the seven benchmarks on all five designs at ScaleSmall — as
// the SHA-256 of each cell's Result JSON. A change that only makes the
// simulator faster must reproduce the file byte for byte; one meant to
// move a counter owns up to it with -update.
func TestSimMatrixDigests(t *testing.T) {
	if err := shared.Prefetch(Benchmarks(), sim.Designs); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, b := range Benchmarks() {
		for _, d := range sim.Designs {
			e, err := shared.Run(b, d)
			if err != nil {
				t.Fatal(err)
			}
			got.WriteString(digestLine(t, e, b, d))
		}
	}
	if *update {
		if err := os.WriteFile(simMatrixPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(simMatrixPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("%s differs:\n--- got ---\n%s--- want ---\n%s", simMatrixPath, got.String(), want)
	}
}

// TestSerialCellsMatchDigests is the differential check behind the
// engine's determinism claim: one cell per design, simulated on a fresh
// runner by a pool of one worker, must reproduce the digest line the
// default pool pins in TestSimMatrixDigests. Simulated clocks are
// deterministic, so any divergence means scheduling leaked into results.
func TestSerialCellsMatchDigests(t *testing.T) {
	file, err := os.ReadFile(simMatrixPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(file)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := NewRunner(workloads.ScaleSmall)
	cells := []unit{
		r.matrix("bscholes", sim.Baseline),
		r.matrix("bscholes", sim.Dganger),
		r.matrix("lattice", sim.Truncate),
		r.matrix("heat", sim.ZeroAVR),
		r.matrix("kmeans", sim.AVR),
	}
	got, err := r.resolve(cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range cells {
		line := digestLine(t, got.of(u), u.bench, u.cfg.Design)
		if !strings.Contains(want, line) {
			t.Errorf("%s serially: %s is not the line %s pins", u.label, strings.TrimSpace(line), simMatrixPath)
		}
	}
	if n := r.Simulations(); n != int64(len(cells)) {
		t.Errorf("simulations = %d, want %d", n, len(cells))
	}
}
