// External test package: workloads imports sim, so driving a real
// workload against the recorder has to live outside package sim.
package sim_test

import (
	"strings"
	"testing"

	"avr/internal/obs"
	"avr/internal/sim"
	"avr/internal/workloads"
)

// runRecorded runs one benchmark at small scale with an epoch recorder
// attached and returns the recorder plus the finished Result.
func runRecorded(t *testing.T, bench string, d sim.Design, every uint64) (*obs.Recorder, sim.Result) {
	t.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.PresetSmall(d)
	sys := sim.New(cfg)
	rec := obs.NewRecorder(every, 1<<16)
	sys.SetRecorder(rec)
	w.Setup(sys, workloads.ScaleSmall)
	sys.Prime()
	w.Run(sys)
	return rec, sys.Finish(bench)
}

// TestEpochDeltasSumToRunTotals is the acceptance check for the epoch
// time-series: on a heat/AVR small run, the per-counter sum of all
// recorded epoch deltas must equal the end-of-run totals in sim.Result.
func TestEpochDeltasSumToRunTotals(t *testing.T) {
	rec, r := runRecorded(t, "heat", sim.AVR, 5000)
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d epochs; grow the test capacity", rec.Dropped())
	}
	epochs := rec.Epochs()
	if len(epochs) < 3 {
		t.Fatalf("only %d epochs recorded; lower the interval", len(epochs))
	}
	if !epochs[len(epochs)-1].Final {
		t.Error("last epoch not marked final")
	}

	var sum obs.Counters
	for _, e := range epochs {
		sum = sum.Add(e.Delta)
	}

	if sum.Cycles != r.Cycles {
		t.Errorf("cycles: epochs sum to %d, result has %d", sum.Cycles, r.Cycles)
	}
	if sum.Instructions != r.Instructions {
		t.Errorf("instructions: epochs sum to %d, result has %d", sum.Instructions, r.Instructions)
	}
	if sum.LLCMisses != r.LLCMisses {
		t.Errorf("LLC misses: epochs sum to %d, result has %d", sum.LLCMisses, r.LLCMisses)
	}
	if sum.DRAMReadBytes != r.DRAM.BytesRead {
		t.Errorf("DRAM read bytes: epochs sum to %d, result has %d", sum.DRAMReadBytes, r.DRAM.BytesRead)
	}
	if sum.DRAMWriteBytes != r.DRAM.BytesWritten {
		t.Errorf("DRAM write bytes: epochs sum to %d, result has %d", sum.DRAMWriteBytes, r.DRAM.BytesWritten)
	}
	if sum.DRAMApproxBytes != r.DRAM.ApproxBytes {
		t.Errorf("DRAM approx bytes: epochs sum to %d, result has %d", sum.DRAMApproxBytes, r.DRAM.ApproxBytes)
	}
	if sum.CMTBytes != r.CMTTrafficBytes {
		t.Errorf("CMT bytes: epochs sum to %d, result has %d", sum.CMTBytes, r.CMTTrafficBytes)
	}
	st := r.AVRStats
	if st == nil {
		t.Fatal("AVR run has no AVRStats")
	}
	if sum.Compresses != st.Compresses {
		t.Errorf("compresses: epochs sum to %d, result has %d", sum.Compresses, st.Compresses)
	}
	if sum.Decompresses != st.Decompresses {
		t.Errorf("decompresses: epochs sum to %d, result has %d", sum.Decompresses, st.Decompresses)
	}
	if sum.Outliers != st.Outliers {
		t.Errorf("outliers: epochs sum to %d, result has %d", sum.Outliers, st.Outliers)
	}

	// The series must actually show activity, not just a final lump.
	if sum.Compresses == 0 {
		t.Error("AVR heat run recorded zero compressions")
	}
}

// TestEpochJSONLStream checks the avrsim trace JSONL pipeline end to end:
// every epoch (including the final partial one) streams through the
// sink into valid JSON lines.
func TestEpochJSONLStream(t *testing.T) {
	w, err := workloads.ByName("heat")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.PresetSmall(sim.AVR)
	sys := sim.New(cfg)
	rec := obs.NewRecorder(20000, 1)
	var sb strings.Builder
	ew := obs.NewJSONLWriter(&sb)
	rec.SetSink(func(e obs.Epoch) {
		if err := ew.WriteEpoch(e); err != nil {
			t.Errorf("write epoch: %v", err)
		}
	})
	sys.SetRecorder(rec)
	w.Setup(sys, workloads.ScaleSmall)
	sys.Prime()
	w.Run(sys)
	sys.Finish("heat")
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if n := uint64(len(rec.Epochs())) + rec.Dropped(); uint64(len(lines)) != n {
		t.Errorf("streamed %d lines, recorder counted %d epochs", len(lines), n)
	}
	if !strings.Contains(lines[len(lines)-1], `"final":true`) {
		t.Errorf("last line not final: %s", lines[len(lines)-1])
	}
}

// TestHistogramsSurfaceInResult checks Config.Histograms wires the
// distributions through to Result for AVR (4 histograms) and baseline
// (DRAM latency only), and that disabled runs carry none.
func TestHistogramsSurfaceInResult(t *testing.T) {
	run := func(d sim.Design, hist bool) sim.Result {
		w, err := workloads.ByName("heat")
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.PresetSmall(d)
		cfg.Histograms = hist
		sys := sim.New(cfg)
		w.Setup(sys, workloads.ScaleSmall)
		sys.Prime()
		w.Run(sys)
		return sys.Finish("heat")
	}

	r := run(sim.AVR, true)
	if len(r.Histograms) != 4 {
		t.Fatalf("AVR histograms = %d, want 4", len(r.Histograms))
	}
	byName := map[string]int{}
	for _, h := range r.Histograms {
		byName[h.Name] = int(h.Count)
	}
	for _, name := range []string{"dram_latency", "compressed_block_lines", "outliers_per_block", "reconstruction_error"} {
		if byName[name] == 0 {
			t.Errorf("histogram %s empty or missing (have %v)", name, byName)
		}
	}

	if rb := run(sim.Baseline, true); len(rb.Histograms) != 1 || rb.Histograms[0].Name != "dram_latency" {
		t.Errorf("baseline histograms = %+v, want dram_latency only", rb.Histograms)
	}
	if roff := run(sim.AVR, false); roff.Histograms != nil {
		t.Errorf("disabled run carries histograms: %+v", roff.Histograms)
	}
}
