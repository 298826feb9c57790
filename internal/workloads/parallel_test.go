package workloads

import (
	"math"
	"testing"

	"avr/internal/sim"
)

// runMulti executes a parallel workload's Run on each of n cores.
func runMulti(t *testing.T, name string, d sim.Design, n int) (*sim.Multi, sim.MultiResult, []float64) {
	t.Helper()
	w, err := ParallelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.PresetSmall(d)
	// Shared-resource CMP: the LLC and DRAM are not per-core slices.
	cfg.LLCBytes *= 4
	cfg.DRAMChannels = 2
	cfg.DRAMSliceDiv = 1
	m := sim.NewMulti(cfg, n)
	w.Setup(m.Shared(), ScaleSmall)
	m.Prime()
	m.Run(func(c *sim.CoreCtx) { w.Run(c) })
	res := m.Finish(name)
	return m, res, w.Output(m.Shared())
}

// TestParallelByName holds the decomposed set to the three benchmarks
// whose Run shards its work: every other benchmark would run whole on
// each core, and is refused by name.
func TestParallelByName(t *testing.T) {
	for _, n := range []string{"heat", "kmeans", "bscholes"} {
		if w, err := ParallelByName(n); err != nil || w.Name() != n {
			t.Errorf("%s: %v", n, err)
		}
	}
	for _, n := range []string{"lattice", "lbm", "orbit", "wrf"} {
		_, err := ParallelByName(n)
		if want := "workloads: benchmark " + n + " has no parallel decomposition"; err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", n, err, want)
		}
	}
	if _, err := ParallelByName("bogus"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestParallelMatchesSequentialOutput is the key correctness check: a
// kernel's one body, run on the exact baseline by the one-core System
// and by a 4-core Multi, must produce the same result (identical
// arithmetic, different order only where associativity-safe).
func TestParallelMatchesSequentialOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel sweep")
	}
	for _, name := range []string{"heat", "bscholes", "kmeans"} {
		t.Run(name, func(t *testing.T) {
			seq, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			sys := sim.New(sim.PresetSmall(sim.Baseline))
			seq.Setup(sys, ScaleSmall)
			seq.Run(sys)
			sys.Finish(name)
			want := seq.Output(sys)

			_, _, got := runMulti(t, name, sim.Baseline, 4)
			if len(got) != len(want) {
				t.Fatalf("output lengths: %d vs %d", len(got), len(want))
			}
			var worst float64
			for i := range want {
				d := math.Abs(got[i] - want[i])
				if want[i] != 0 {
					d /= math.Abs(want[i])
				}
				if d > worst {
					worst = d
				}
			}
			// heat/bscholes are bit-identical; kmeans' reduction order
			// differs (integer division of partial sums), tolerate tiny
			// centroid differences.
			limit := 0.0
			if name == "kmeans" {
				limit = 0.01
			}
			if worst > limit {
				t.Errorf("parallel output deviates by %v (limit %v)", worst, limit)
			}
		})
	}
}

func TestParallelHeatScalesUnderAVR(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel sweep")
	}
	_, r1, _ := runMulti(t, "heat", sim.AVR, 1)
	_, r4, _ := runMulti(t, "heat", sim.AVR, 4)
	if r4.Cycles >= r1.Cycles {
		t.Errorf("4-core AVR heat (%d) not faster than 1-core (%d)", r4.Cycles, r1.Cycles)
	}
	if len(r4.PerCore) != 4 {
		t.Errorf("per-core cycles: %v", r4.PerCore)
	}
}
