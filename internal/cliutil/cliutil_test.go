package cliutil

import (
	"flag"
	"io"
	"testing"

	"avr/internal/sim"
	"avr/internal/workloads"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestRegisterDefaults(t *testing.T) {
	fs := newFlagSet()
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	d, sc, cfg, err := f.ResolveRun()
	if err != nil {
		t.Fatal(err)
	}
	if f.Bench != "heat" || d != sim.AVR || sc != workloads.ScaleSmall {
		t.Errorf("defaults: bench=%q design=%v scale=%v", f.Bench, d, sc)
	}
	if cfg.LLCBytes != sim.PresetSmall(sim.AVR).LLCBytes {
		t.Errorf("default preset not small: %+v", cfg)
	}
	if f.DebugAddr != "" {
		t.Errorf("debug server on by default: %q", f.DebugAddr)
	}
}

func TestRegisterParsesAll(t *testing.T) {
	fs := newFlagSet()
	f := Register(fs)
	args := []string{"-bench", "wrf", "-design", "baseline", "-scale", "slice", "-debug-addr", "localhost:0"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	d, sc, cfg, err := f.ResolveRun()
	if err != nil {
		t.Fatal(err)
	}
	if f.Bench != "wrf" || d != sim.Baseline || sc != workloads.ScaleSlice {
		t.Errorf("parsed: bench=%q design=%v scale=%v", f.Bench, d, sc)
	}
	if cfg.LLCBytes != sim.PresetSlice(sim.Baseline).LLCBytes {
		t.Errorf("slice preset not selected: %+v", cfg)
	}
	if f.DebugAddr != "localhost:0" {
		t.Errorf("debug addr = %q", f.DebugAddr)
	}
}

func TestResolveScale(t *testing.T) {
	if sc, err := ResolveScale("small"); err != nil || sc != workloads.ScaleSmall {
		t.Errorf("small: %v %v", sc, err)
	}
	if sc, err := ResolveScale("slice"); err != nil || sc != workloads.ScaleSlice {
		t.Errorf("slice: %v %v", sc, err)
	}
	if _, err := ResolveScale("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestResolveRunRejectsBadDesign(t *testing.T) {
	fs := newFlagSet()
	f := Register(fs)
	if err := fs.Parse([]string{"-design", "nope"}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.ResolveRun(); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestPresetCoversAllDesigns(t *testing.T) {
	for _, d := range sim.Designs {
		small := workloads.ScaleSmall.Preset(d)
		slice := workloads.ScaleSlice.Preset(d)
		if small.LLCBytes >= slice.LLCBytes {
			t.Errorf("%v: small preset not smaller than slice", d)
		}
	}
}
