package workloads

import (
	"testing"

	"avr/internal/sim"
)

func runOn(t *testing.T, w Workload, d sim.Design) (*sim.System, sim.Result, []float64) {
	t.Helper()
	sys := sim.New(sim.PresetSmall(d))
	w.Setup(sys, ScaleSmall)
	sys.Prime()
	w.Run(sys)
	res := sys.Finish(w.Name())
	return sys, res, w.Output(sys)
}

func TestAllReturnsSeven(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All() = %d workloads", len(all))
	}
	names := map[string]bool{}
	for _, w := range all {
		names[w.Name()] = true
	}
	for _, n := range []string{"heat", "lattice", "lbm", "orbit", "kmeans", "bscholes", "wrf"} {
		if !names[n] {
			t.Errorf("missing benchmark %q", n)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("heat")
	if err != nil || w.Name() != "heat" {
		t.Errorf("ByName(heat) = %v, %v", w, err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	if newRNG(0).next() == 0 {
		t.Error("zero seed must still generate")
	}
}

func TestRNGDistribution(t *testing.T) {
	r := newRNG(7)
	var sum, sq float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < -0.1 || mean > 0.1 {
		t.Errorf("norm mean = %v", mean)
	}
	if variance < 0.7 || variance > 1.3 {
		t.Errorf("norm variance = %v", variance)
	}
}

// TestEveryWorkloadRunsOnBaseline is the core integration test: each
// benchmark sets up, runs to completion, and produces deterministic
// non-trivial output on the exact baseline.
func TestEveryWorkloadRunsOnBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	for _, mk := range []func() Workload{
		func() Workload { return NewHeat() },
		func() Workload { return NewLattice() },
		func() Workload { return NewLBM() },
		func() Workload { return NewOrbit() },
		func() Workload { return NewKMeans() },
		func() Workload { return NewBScholes() },
		func() Workload { return NewWRF() },
	} {
		w := mk()
		t.Run(w.Name(), func(t *testing.T) {
			_, res, out := runOn(t, w, sim.Baseline)
			if res.Instructions == 0 || res.Cycles == 0 {
				t.Fatalf("empty run: %+v", res)
			}
			if len(out) == 0 {
				t.Fatal("no output")
			}
			nonzero := 0
			for _, v := range out {
				if v != 0 {
					nonzero++
				}
			}
			if nonzero < len(out)/4 {
				t.Errorf("output mostly zero: %d/%d", nonzero, len(out))
			}
			// Determinism: a second identical run yields identical output.
			_, _, out2 := runOn(t, mk(), sim.Baseline)
			if len(out) != len(out2) {
				t.Fatalf("output lengths differ")
			}
			for i := range out {
				if out[i] != out2[i] {
					t.Fatalf("output %d differs across identical runs", i)
				}
			}
		})
	}
}

// TestApproxFootprintShares checks each benchmark's approximable share
// of the footprint against the paper's characterisation.
func TestApproxFootprintShares(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi float64 // approx fraction bounds
	}{
		{"heat", 0.9, 1.0},     // both grids approx
		{"lattice", 0.8, 1.0},  // distributions approx, mask exact
		{"lbm", 0.9, 1.0},      // ~98% in the paper
		{"orbit", 0.9, 1.0},    // all trajectories
		{"kmeans", 0.9, 1.0},   // the elevation data
		{"bscholes", 0.5, 0.9}, // inputs approx, prices exact (~30% in paper's whole-app terms)
		{"wrf", 0.10, 0.25},    // ~15% in the paper
	}
	for _, c := range cases {
		w, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		sys := sim.New(sim.PresetSmall(sim.Baseline))
		w.Setup(sys, ScaleSmall)
		frac := float64(sys.Space.ApproxBytes()) / float64(sys.Space.Footprint())
		if frac < c.lo || frac > c.hi {
			t.Errorf("%s: approx fraction %.2f outside [%.2f, %.2f]",
				c.name, frac, c.lo, c.hi)
		}
	}
}

// TestFootprintExceedsLLC verifies every benchmark's working set is
// larger than the small LLC slice, keeping the runs memory-bound as in
// the paper.
func TestFootprintExceedsLLC(t *testing.T) {
	cfg := sim.PresetSmall(sim.Baseline)
	for _, w := range All() {
		sys := sim.New(cfg)
		w.Setup(sys, ScaleSmall)
		if sys.Space.Footprint() < 2*uint64(cfg.LLCBytes) {
			t.Errorf("%s footprint %d < 2× LLC %d",
				w.Name(), sys.Space.Footprint(), cfg.LLCBytes)
		}
	}
}

func TestHeatConvergesTowardBoundary(t *testing.T) {
	w := NewHeat()
	_, _, out := runOn(t, w, sim.Baseline)
	// Temperatures must stay within the boundary-condition range.
	for i, v := range out {
		if v < 15 || v > 105 {
			t.Fatalf("output %d = %v outside physical range", i, v)
		}
	}
}

// TestKMeansIterationsRecorded pins known modelling deviation 8
// (EXPERIMENTS.md): no kmeans run here meets the convergence test, so
// both designs run every iteration the cap allows and execute the same
// instructions, where the paper has AVR's distorted points cost extra
// iterations. A change that makes kmeans converge has to edit this.
func TestKMeansIterationsRecorded(t *testing.T) {
	var instr [2]uint64
	for i, d := range []sim.Design{sim.Baseline, sim.AVR} {
		w := NewKMeans()
		_, res, out := runOn(t, w, d)
		if w.Iterations() != kmeansMaxIter {
			t.Errorf("%v: %d iterations, want the cap %d", d, w.Iterations(), kmeansMaxIter)
		}
		for _, c := range out {
			if c < 0 || c > 2500 {
				t.Errorf("%v: centroid %v outside elevation range", d, c)
			}
		}
		instr[i] = res.Instructions
	}
	if instr[0] != instr[1] {
		t.Errorf("instructions: Baseline %d, AVR %d", instr[0], instr[1])
	}
}

func TestBScholesPricesPositive(t *testing.T) {
	w := NewBScholes()
	_, _, out := runOn(t, w, sim.Baseline)
	neg := 0
	for _, p := range out {
		if p < 0 {
			neg++
		}
	}
	if neg > 0 {
		t.Errorf("%d negative option prices", neg)
	}
}

func TestOrbitEnergyRoughlyConserved(t *testing.T) {
	w := NewOrbit()
	_, _, out := runOn(t, w, sim.Baseline)
	// Output triples: x, y, energy. Leapfrog keeps energy bounded.
	var first, worst float64
	for i := 2; i < len(out); i += 3 {
		if first == 0 {
			first = out[i]
		}
		dev := out[i] - first
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	if first == 0 {
		t.Fatal("no energy samples")
	}
	if worst > 0.25*absf(first) {
		t.Errorf("energy drifted by %v from %v", worst, first)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLatticeMaskContainsCar(t *testing.T) {
	l := NewLattice()
	l.n = 128
	inside := 0
	for i := 0; i < l.n; i++ {
		for j := 0; j < l.n; j++ {
			if l.carMask(i, j) {
				inside++
			}
		}
	}
	frac := float64(inside) / float64(l.n*l.n)
	if frac < 0.02 || frac > 0.2 {
		t.Errorf("car occupies %.1f%% of the domain", frac*100)
	}
}

// TestAVRErrorBounds runs the three most sensitive benchmarks under AVR
// and checks the output error stays in the paper's ballpark.
func TestAVRErrorBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full AVR sweep")
	}
	cases := []struct {
		name string
		max  float64
	}{
		{"heat", 0.02},
		{"orbit", 0.02},
		{"kmeans", 0.05},
	}
	for _, c := range cases {
		w, _ := ByName(c.name)
		_, _, exact := runOn(t, w, sim.Baseline)
		w2, _ := ByName(c.name)
		_, _, approx := runOn(t, w2, sim.AVR)
		var errSum, n float64
		for i := range exact {
			if absf(exact[i]) < 1e-6 {
				continue
			}
			errSum += absf(approx[i]-exact[i]) / absf(exact[i])
			n++
		}
		if e := errSum / n; e > c.max {
			t.Errorf("%s AVR error %.4f > %.4f", c.name, e, c.max)
		}
	}
}

// Iterations returns how many Lloyd iterations the last Run took.
func (m *KMeans) Iterations() int { return m.iter }

// TestStreamBasesShareOneSet pins known modelling deviation 7
// (EXPERIMENTS.md): under PresetSmall geometry the arrays a benchmark
// streams through in lockstep start a multiple of the L1's way span
// apart (orbit's 12 trajectories 118 pages, wrf's 13 fields 144 KiB,
// bscholes' 6 arrays 640 KiB), so element i of every stream maps to one
// L1 set, more streams than the L1 has ways. orbit's and wrf's are also a
// multiple of the L2's way span apart with more streams than its 8 ways;
// bscholes' 6 fit them. Staggering the bases would mend it and move
// every golden of the three, so this test fails when that happens and
// has to change with them.
func TestStreamBasesShareOneSet(t *testing.T) {
	cfg := sim.PresetSmall(sim.Baseline)
	setOf := func(capacity, ways int, a uint64) uint64 {
		return a >> 6 & uint64(capacity/(ways*64)-1)
	}
	orbit, wrf, bscholes := NewOrbit(), NewWRF(), NewBScholes()
	cases := []struct {
		w      Workload
		bases  func() []uint64
		l2Full bool // more streams than L2 ways, all in one L2 set
	}{
		{orbit, func() []uint64 { return append(orbit.pos[:], orbit.vel[:]...) }, true},
		{wrf, func() []uint64 {
			return append([]uint64{wrf.temp, wrf.tnext, wrf.hum, wrf.hnext, wrf.press, wrf.u, wrf.v, wrf.terrain}, wrf.aux[:]...)
		}, true},
		{bscholes, func() []uint64 {
			return []uint64{bscholes.spot, bscholes.strike, bscholes.rate, bscholes.vol, bscholes.ttm, bscholes.prices}
		}, false},
	}
	for _, c := range cases {
		c.w.Setup(sim.New(cfg), ScaleSmall)
		bases := c.bases()
		l1, l2 := setOf(cfg.L1Bytes, cfg.L1Ways, bases[0]), setOf(cfg.L2Bytes, cfg.L2Ways, bases[0])
		for _, b := range bases {
			if got := setOf(cfg.L1Bytes, cfg.L1Ways, b); got != l1 {
				t.Errorf("%s: base %#x in L1 set %d, the first base in %d", c.w.Name(), b, got, l1)
			}
			if got := setOf(cfg.L2Bytes, cfg.L2Ways, b); c.l2Full && got != l2 {
				t.Errorf("%s: base %#x in L2 set %d, the first base in %d", c.w.Name(), b, got, l2)
			}
		}
		if len(bases) <= cfg.L1Ways {
			t.Errorf("%s: %d streams fit the L1's %d ways", c.w.Name(), len(bases), cfg.L1Ways)
		}
		if c.l2Full != (len(bases) > cfg.L2Ways) {
			t.Errorf("%s: %d streams against the L2's %d ways", c.w.Name(), len(bases), cfg.L2Ways)
		}
	}
}
