package main

import (
	"reflect"
	"testing"

	"avr"
)

// A cell adds an epoch recorder to the calls avr.RunBenchmark makes; that
// must not change a single simulated statistic, or sim_matrix would be
// measuring a different simulation from the one users run.
func TestCellMatchesRunBenchmark(t *testing.T) {
	for _, d := range simDesigns {
		got, err := runCell("bscholes", d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := avr.RunBenchmark("bscholes", d, avr.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.res, want) {
			t.Errorf("bscholes on %v: the cell's statistics differ from avr.RunBenchmark's", d)
		}
		if len(got.ref.samples) == 0 || len(got.s) < 2 || !(got.total() > 0) {
			t.Errorf("bscholes on %v: %d reference readings, %d steps, host %v s", d, len(got.ref.samples), len(got.s), got.total())
		}
	}
}

// A repeated piece of work takes every step at its fastest (or median)
// repeat, so a stall in one repeat of a step does not show; repeats that
// do not line up are reduced as wholes.
func TestSteadied(t *testing.T) {
	at := func(s ...float64) *steps {
		return &steps{s: s, ref: refClock{samples: []float64{refNominalNs * 2}}}
	}
	a, b := at(1, 9, 1), at(7, 1, 1)
	if got := steadied([]*steps{a, b}, fastest); got != 1.5 {
		t.Errorf("steadied = %v s, want 1.5 (steps 1+1+1 while the kernel ran at half speed)", got)
	}
	if got := steadied([]*steps{a, at(4, 4)}, fastest); got != 4 {
		t.Errorf("steadied over repeats that do not line up = %v s, want the faster whole repeat, 8 s, at reference speed: 4", got)
	}
	if got := steadied([]*steps{a, b, a}, median); got != 5.5 {
		t.Errorf("steadied by median = %v s, want 5.5 (steps 1+9+1)", got)
	}
	st := startSteps()
	st.cut()
	st.cut()
	if len(st.s) != 2 || st.total() != st.s[0]+st.s[1] || len(st.ref.samples) != 1 {
		t.Errorf("two cuts: %d steps, total %v, %d kernel readings (want 2 steps and the first reading)", len(st.s), st.total(), len(st.ref.samples))
	}
}

// The scale to reference speed is the kernel's nominal time over its
// median reading.
func TestAtRefSpeed(t *testing.T) {
	ref := []float64{refNominalNs * 1.25, refNominalNs * 1.25, refNominalNs * 9}
	if got := atRefSpeed(2, refMedian(ref)); got < 1.6-1e-12 || got > 1.6+1e-12 {
		t.Errorf("2 ms measured while the kernel ran at 1.25x nominal = %v ms at reference speed, want 1.6", got)
	}
	if got := refMedian(nil); got != refNominalNs {
		t.Errorf("no readings = %v, want the nominal time", got)
	}
}
