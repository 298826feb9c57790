package avr

import (
	"strings"
	"testing"
)

func TestBenchmarksList(t *testing.T) {
	b := Benchmarks()
	if len(b) != 7 {
		t.Fatalf("benchmarks = %v, want 7 entries", b)
	}
	if b[0] != "heat" || b[6] != "wrf" {
		t.Errorf("unexpected order: %v", b)
	}
}

func TestRunBenchmarkSmoke(t *testing.T) {
	r, err := RunBenchmark("heat", AVR, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Instructions == 0 {
		t.Errorf("empty result: %+v", r)
	}
	if r.CompressionRatio <= 1 {
		t.Errorf("heat compression ratio = %v, want > 1", r.CompressionRatio)
	}
	if r.AVRStats == nil {
		t.Error("AVR run missing AVR stats")
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, err := RunBenchmark("nope", AVR, ScaleSmall); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestAVRFasterThanBaselineOnHeat(t *testing.T) {
	base, err := RunBenchmark("heat", Baseline, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	avr, err := RunBenchmark("heat", AVR, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if avr.Cycles >= base.Cycles {
		t.Errorf("AVR (%d cycles) not faster than baseline (%d)", avr.Cycles, base.Cycles)
	}
	if avr.DRAM.TotalBytes() >= base.DRAM.TotalBytes() {
		t.Errorf("AVR traffic (%d) not below baseline (%d)",
			avr.DRAM.TotalBytes(), base.DRAM.TotalBytes())
	}
}

func TestOutputErrorBounded(t *testing.T) {
	e, err := OutputError("heat", AVR, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if e < 0 || e > 0.05 {
		t.Errorf("heat AVR output error = %v, want small", e)
	}
}

func TestExperimentByID(t *testing.T) {
	title, text, csv, err := Experiment("overhead", ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(title, "overhead") && !strings.Contains(title, "4.2") {
		t.Errorf("title = %q", title)
	}
	if !strings.Contains(text, "CMT") || !strings.Contains(csv, ",") {
		t.Error("report content missing")
	}
}

func TestExperimentUnknown(t *testing.T) {
	if _, _, _, err := Experiment("fig99", ScaleSmall); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 15 {
		t.Errorf("ids = %v", ids)
	}
}

func TestValidate(t *testing.T) {
	for _, d := range []Design{Baseline, Doppelganger, Truncate, ZeroAVR, AVR} {
		if err := Validate(d); err != nil {
			t.Errorf("valid design rejected: %v", err)
		}
	}
	if err := Validate(Design(99)); err == nil {
		t.Error("invalid design accepted")
	}
}

func TestDefaultThresholds(t *testing.T) {
	t1, t2 := DefaultThresholds()
	if t1 != 2*t2 {
		t.Errorf("T1 (%v) != 2·T2 (%v)", t1, t2)
	}
}
