package main

import (
	"time"
)

// Machine-speed calibration.
//
// On this class of sandbox the same work runs tens of percent slower for
// seconds to minutes at a time: a fixed pure-ALU dependency chain keeps
// its time to within 1 %, while anything that issues several
// instructions per cycle — the SIMD codec, memcpy, the Go runtime —
// slows by 20–50 % when a neighbour shares the core. Ten-second runs
// minutes apart then differ by more than any bound the driver allows
// (README, "Steadiness").
//
// So every run reads a fixed reference kernel beside the work it times,
// and the end-to-end timing metrics are reported at reference speed: a
// time is multiplied by refNominalNs over the kernel's median time
// during the same phase, a rate by the inverse. The kernel is frozen
// code in this file, with eight independent multiply-add chains over a
// 64 KiB array, so that it loses speed to a neighbour the way the tiers
// do; a change to the repository cannot make it faster. The raw figures
// are printed beside the scaled ones and are what the per-layer
// client.* metrics report.

// refNominalNs is the reference kernel's undisturbed time on the box this
// benchmark was written on. It only fixes the scale: on a box twice as
// fast both the kernel and the work take half as long and the scaled
// figures stay put.
const refNominalNs = 40_000

// refEvery is how often a client runs the kernel: once every 4 ms of its
// own time, about 1 % of it.
const refEvery = 4 * time.Millisecond

// refValues is the kernel's array length: 64 KiB of float32.
const refValues = 16384

var refIn = func() []float32 {
	f := make([]float32, refValues)
	for i := range f {
		f[i] = float32(i%97) * 0.5
	}
	return f
}()

// refKernel runs the reference kernel once, writing into out (refValues
// long, the caller's own), and returns its time in ns.
func refKernel(out []float32) float64 {
	t0 := time.Now()
	var a0, a1, a2, a3, a4, a5, a6, a7 float32
	f := refIn
	for r := 0; r < 4; r++ {
		for i := 0; i+8 <= len(f); i += 8 {
			a0 += f[i] * f[i]
			a1 += f[i+1] * f[i+1]
			a2 += f[i+2] * f[i+2]
			a3 += f[i+3] * f[i+3]
			a4 += f[i+4] * f[i+4]
			a5 += f[i+5] * f[i+5]
			a6 += f[i+6] * f[i+6]
			a7 += f[i+7] * f[i+7]
			out[i] = a0
		}
	}
	out[1] = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	return float64(time.Since(t0))
}

// refClock reads the kernel on one goroutine at most every refEvery and
// keeps the readings, in ns.
type refClock struct {
	last    time.Time
	samples []float64
	out     []float32 // the kernel's output, one per clock: clocks tick on their own goroutines
}

// tick runs the kernel if refEvery has passed since the last reading.
func (rc *refClock) tick(now time.Time) {
	if now.Sub(rc.last) < refEvery {
		return
	}
	if rc.out == nil {
		rc.out = make([]float32, refValues)
	}
	rc.samples = append(rc.samples, refKernel(rc.out))
	rc.last = time.Now()
}

// refMedian returns the median reading, or the nominal time when there
// are none.
func refMedian(samples []float64) float64 {
	if len(samples) == 0 {
		return refNominalNs
	}
	return median(samples)
}

// steps times a piece of work that the run repeats identically — a
// set-up, a simulator cell — cut into steps, reading the reference
// kernel between them. Step i is the same work in every repeat, so the
// repeats can be reduced step by step (steadied).
type steps struct {
	mark time.Time
	s    []float64 // seconds each step took, net of the kernel readings
	ref  refClock
}

func startSteps() *steps { return &steps{mark: time.Now()} }

// cut ends a step.
func (st *steps) cut() {
	now := time.Now()
	st.s = append(st.s, now.Sub(st.mark).Seconds())
	st.ref.tick(now)
	st.mark = time.Now()
}

// total is the repeat's time as measured, in seconds.
func (st *steps) total() float64 {
	var sum float64
	for _, s := range st.s {
		sum += s
	}
	return sum
}

// steadied returns the seconds one repeat takes, at reference speed, from
// several repeats: every step at the reading pick takes across the
// repeats, summed. The hypervisor takes a vCPU away for milliseconds at
// a time and a neighbour's memory traffic comes and goes, which
// lengthens a few steps of every repeat and rarely the same ones twice.
// Repeats whose step counts differ (they never should) are reduced as
// wholes.
func steadied(runs []*steps, pick func([]float64) float64) float64 {
	var ref []float64
	totals := make([]float64, len(runs))
	aligned := true
	for i, r := range runs {
		ref = append(ref, r.ref.samples...)
		totals[i] = r.total()
		aligned = aligned && len(r.s) == len(runs[0].s)
	}
	t := pick(totals)
	if aligned {
		t = 0
		across := make([]float64, len(runs))
		for i := range runs[0].s {
			for j, r := range runs {
				across[j] = r.s[i]
			}
			t += pick(across)
		}
	}
	return atRefSpeed(t, refMedian(ref))
}

func fastest(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

// atRefSpeed scales a time measured while the kernel read ref ns to
// reference speed; a rate scales by the inverse.
func atRefSpeed(t, ref float64) float64 { return t * refNominalNs / ref }
