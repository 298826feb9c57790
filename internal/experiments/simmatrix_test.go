package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avr/internal/sim"
)

// TestSimMatrixDigests pins every simulated counter of the cells bench/'s
// sim_matrix workload times — the seven benchmarks on Baseline and AVR at
// ScaleSmall — as the SHA-256 of each cell's Result JSON. A change that
// only makes the simulator faster must reproduce the file byte for byte;
// one meant to move a counter owns up to it with -update.
func TestSimMatrixDigests(t *testing.T) {
	designs := []sim.Design{sim.Baseline, sim.AVR}
	if err := shared.Prefetch(Benchmarks(), designs); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, b := range Benchmarks() {
		for _, d := range designs {
			e, err := shared.Run(b, d)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(e.Result)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%x  %s/%s\n", sha256.Sum256(js), b, d)
		}
	}
	path := filepath.Join("testdata", "small", "sim_matrix.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("%s differs:\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}
