// Package cliutil holds the flag parsing and setup shared by the avr
// commands: benchmark/design/scale selection and preset construction
// (avrsim's run, tables and trace), the opt-in debug server, the
// workload vectors of the load and store tools (avrload, avrstore), and
// the flags and serve-until-signal-then-drain loop of the two daemons
// (avrd, avrrouter; daemon.go).
package cliutil

import (
	"flag"
	"fmt"
	"os"

	"avr/internal/obs"
	"avr/internal/sim"
	"avr/internal/vec"
	"avr/internal/workloads"
)

// Flags bundles the run-selection options shared by the single-run
// commands.
type Flags struct {
	Bench     string
	Design    string
	Scale     string
	DebugAddr string
}

// Register installs the shared run-selection flags on fs and returns
// the struct their values land in after fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Bench, "bench", "heat", "benchmark: heat, lattice, lbm, orbit, kmeans, bscholes, wrf")
	fs.StringVar(&f.Design, "design", "AVR", "design: baseline, dganger, truncate, ZeroAVR, AVR")
	RegisterScale(fs, &f.Scale)
	RegisterDebug(fs, &f.DebugAddr)
	return f
}

// RegisterScale installs just the -scale flag (for commands that run
// the whole matrix rather than one benchmark × design point).
func RegisterScale(fs *flag.FlagSet, dst *string) {
	fs.StringVar(dst, "scale", "small", "input scale: small or slice")
}

// RegisterDebug installs just the -debug-addr flag.
func RegisterDebug(fs *flag.FlagSet, dst *string) {
	fs.StringVar(dst, "debug-addr", "",
		"serve expvar and pprof on this address (e.g. localhost:6060); empty disables")
}

// RegisterT1 installs the -t1 error-threshold flag shared by the codec
// service commands (avrd, avrload).
func RegisterT1(fs *flag.FlagSet, dst *float64) {
	fs.Float64Var(dst, "t1", 0,
		"per-value relative error threshold in (0,1); 0 selects the experiment default (1/32)")
}

// ResolveScale maps a -scale value to its workloads constant.
func ResolveScale(name string) (workloads.Scale, error) {
	switch name {
	case "small":
		return workloads.ScaleSmall, nil
	case "slice":
		return workloads.ScaleSlice, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want small or slice)", name)
}

// GenVec generates n values of a workload distribution at width 32 or
// 64, deterministically in seed: what the load and store tools write and
// then hold the answers to.
func GenVec(dist string, n, width int, seed uint64) (vec.Vec, error) {
	if width == 64 {
		v, err := workloads.GenFloat64(dist, n, seed)
		return vec.Of64(v), err
	}
	v, err := workloads.GenFloat32(dist, n, seed)
	return vec.Of32(v), err
}

// ResolveRun resolves a parsed Flags into the design, the scale and the
// matching preset configuration.
func (f *Flags) ResolveRun() (sim.Design, workloads.Scale, sim.Config, error) {
	d, err := sim.DesignByName(f.Design)
	if err != nil {
		return 0, 0, sim.Config{}, err
	}
	sc, err := ResolveScale(f.Scale)
	if err != nil {
		return 0, 0, sim.Config{}, err
	}
	return d, sc, sc.Preset(d), nil
}

// StartDebug starts the expvar/pprof server when addr is non-empty and
// announces the bound address on stderr (the port may be ephemeral).
func StartDebug(addr string) {
	if addr == "" {
		return
	}
	bound, err := obs.ServeDebug(addr)
	if err != nil {
		Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars (pprof at /debug/pprof/)\n", bound)
}

// Fatal prints an error and exits with the usage-error status the
// commands conventionally use for bad flags.
func Fatal(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(2)
}
