package experiments

import (
	"runtime"
	"testing"

	"avr/internal/sim"
	"avr/internal/workloads"
)

// TestParallelMatchesSerial is the differential check behind the
// engine's determinism claim: a pool of one worker must reproduce the
// same golden Table 3 and Fig. 10 bytes the default pool does in
// TestFullMatrixReports. Simulated clocks are deterministic, so any
// divergence means scheduling leaked into results.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := NewRunner(workloads.ScaleSmall)
	for _, id := range []string{"table3", "fig10"} {
		rep, err := serial.ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, rep)
	}
	// fig10 needs the whole matrix and table3 a subset of it: the memo
	// must have simulated each cell once.
	if n, want := serial.Simulations(), int64(len(Benchmarks())*len(sim.Designs)); n != want {
		t.Errorf("simulations = %d, want %d", n, want)
	}
}
