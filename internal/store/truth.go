package store

import (
	"fmt"
	"math"

	"avr/internal/vec"
)

// The store's contract, written once. A value reads back within t1 of
// what was written (paper §3.3), and a compressed-domain answer lies
// within the error bound it reports of the exact answer over the
// original values. avrload, avrstore's verify and query -check, and this
// package's tests all hold results to it through WithinT1 and Truth.

// tol widens a reported bound by the comparison's own float slack
// (sumSlack: the verifier's float64 accumulation, like the executor's).
func tol(b float64) float64 { return b*(1+sumSlack) + 1e-300 }

// WithinT1 checks got value by value against want: the same width and
// length, and every value within t1·|want| of the one written. The error
// names the first value out of bound.
func WithinT1(got, want vec.Vec, t1 float64) error {
	if got.Width != want.Width || got.Len() != want.Len() {
		return fmt.Errorf("%d fp%d values, want %d fp%d", got.Len(), got.Width, want.Len(), want.Width)
	}
	for i := range got.Len() {
		g, w := at(got, i), at(want, i)
		if math.Abs(g-w) > t1*math.Abs(w)*(1+sumSlack) {
			return fmt.Errorf("value %d: |%g - %g| beyond t1=%g", i, g, w, t1)
		}
	}
	return nil
}

// at reads value i of v as a float64.
func at(v vec.Vec, i int) float64 {
	if v.Width == 64 {
		return v.F64[i]
	}
	return float64(v.F32[i])
}

// Truth is the exact answer set a query approximates, computed from the
// original values the way the executor accumulates (float64, index
// order), so the reported bounds are the only slack between them.
type Truth struct {
	vals     []float64
	Count    int64
	Sum      float64
	Min, Max float64
	Points   []float64 // padded 16→1 group means
}

// NewTruth computes the exact answers over v.
func NewTruth(v vec.Vec) *Truth {
	n := v.Len()
	t := &Truth{vals: make([]float64, n), Count: int64(n), Min: math.Inf(1), Max: math.Inf(-1)}
	for i := range t.vals {
		x := at(v, i)
		t.vals[i] = x
		t.Sum += x
		t.Min = math.Min(t.Min, x)
		t.Max = math.Max(t.Max, x)
	}
	for g := 0; g*16 < n; g++ {
		var s float64
		for j := g * 16; j < g*16+16; j++ {
			s += t.vals[min(j, n-1)] // codec padding convention
		}
		t.Points = append(t.Points, s/16)
	}
	return t
}

// Bands are the filter ranges the checkers run: everything, the middle
// half and a narrow band at the centre.
func (t *Truth) Bands() [][2]float64 {
	span := t.Max - t.Min
	return [][2]float64{
		{t.Min, t.Max},
		{t.Min + span/4, t.Max - span/4},
		{t.Min + span/2.1, t.Min + span/1.9},
	}
}

// matches is the exact number of values in [lo, hi].
func (t *Truth) matches(lo, hi float64) int64 {
	var n int64
	for _, v := range t.vals {
		if lo <= v && v <= hi {
			n++
		}
	}
	return n
}

// Aggregate checks an aggregate answer: complete, the exact count and
// byte total, every byte touched accounted, the sum and the mean within
// their bounds, and min and max inside their envelopes.
func (t *Truth) Aggregate(a AggregateResult) error {
	switch {
	case !a.Complete:
		return ErrIncomplete
	case a.Count != t.Count:
		return fmt.Errorf("count %d, want %d", a.Count, t.Count)
	case a.BytesTotal != t.Count*int64(a.Width/8):
		return fmt.Errorf("bytes_total %d, want %d", a.BytesTotal, t.Count*int64(a.Width/8))
	case a.BytesTouched <= 0:
		return fmt.Errorf("bytes_touched %d", a.BytesTouched)
	}
	if d := math.Abs(a.Sum - t.Sum); d > tol(a.ErrorBound) {
		return fmt.Errorf("|sum %g - exact %g| = %g beyond bound %g", a.Sum, t.Sum, d, a.ErrorBound)
	}
	mean := t.Sum / float64(t.Count)
	if d := math.Abs(a.Mean - mean); d > tol(a.MeanErrorBound) {
		return fmt.Errorf("|mean %g - exact %g| = %g beyond bound %g", a.Mean, mean, d, a.MeanErrorBound)
	}
	if slack := sumSlack*math.Abs(t.Min) + 1e-300; a.Min > t.Min+slack || t.Min > a.Min+a.MinErrorBound+slack {
		return fmt.Errorf("exact min %g outside [%g, %g+%g]", t.Min, a.Min, a.Min, a.MinErrorBound)
	}
	if slack := sumSlack*math.Abs(t.Max) + 1e-300; a.Max < t.Max-slack || t.Max < a.Max-a.MaxErrorBound-slack {
		return fmt.Errorf("exact max %g outside [%g-%g, %g]", t.Max, a.Max, a.MaxErrorBound, a.Max)
	}
	return nil
}

// Filter checks a range-filter answer over its own [Lo, Hi]: complete,
// the bracket holding the exact count, and the point estimate within its
// bound of it.
func (t *Truth) Filter(f FilterResult) error {
	if !f.Complete {
		return ErrIncomplete
	}
	exact := t.matches(f.Lo, f.Hi)
	if f.MatchesMin > exact || exact > f.MatchesMax {
		return fmt.Errorf("filter [%g, %g]: exact %d outside bracket [%d, %d]", f.Lo, f.Hi, exact, f.MatchesMin, f.MatchesMax)
	}
	if d := f.Matches - exact; d > f.ErrorBound || d < -f.ErrorBound {
		return fmt.Errorf("filter [%g, %g]: estimate %d vs exact %d beyond bound %d", f.Lo, f.Hi, f.Matches, exact, f.ErrorBound)
	}
	return nil
}

// Downsample checks a downsampled answer: complete, factor 16, one point
// and one bound per group, and every point within its bound.
func (t *Truth) Downsample(d DownsampleResult) error {
	switch {
	case !d.Complete:
		return ErrIncomplete
	case d.Factor != 16:
		return fmt.Errorf("factor %d, want 16", d.Factor)
	case len(d.Points) != len(t.Points) || len(d.Bounds) != len(d.Points):
		return fmt.Errorf("%d points / %d bounds, want %d", len(d.Points), len(d.Bounds), len(t.Points))
	}
	for g, p := range d.Points {
		if diff := math.Abs(p - t.Points[g]); diff > tol(d.Bounds[g]) {
			return fmt.Errorf("point %d: |%g - exact %g| = %g beyond bound %g", g, p, t.Points[g], diff, d.Bounds[g])
		}
	}
	return nil
}
