package store

import (
	"slices"
	"strings"
	"testing"

	"avr/internal/vec"
)

// TestTruthRejectsEachClause feeds the checker real answers with one
// clause doctored at a time and expects each to be refused, naming what
// failed — the clauses the tools' separate copies used to skip (the mean
// bound, the filter estimate, a Bounds slice shorter than Points) among
// them. The answers as served must pass.
func TestTruthRejectsEachClause(t *testing.T) {
	s := openTest(t, Config{})
	vals := genF32(t, "wave", 3*BlockValues+37, 4)
	if _, err := s.Put32("k", vals); err != nil {
		t.Fatal(err)
	}
	gt := NewTruth(vec.Of32(vals))
	agg, err := s.QueryAggregateTraced("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	band := gt.Bands()[1]
	fr, err := s.QueryFilterTraced("k", band[0], band[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := s.QueryDownsampleTraced("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := gt.Aggregate(agg); err != nil {
		t.Fatalf("served aggregate refused: %v", err)
	}
	if err := gt.Filter(fr); err != nil {
		t.Fatalf("served filter refused: %v", err)
	}
	if err := gt.Downsample(ds); err != nil {
		t.Fatalf("served downsample refused: %v", err)
	}
	exact := gt.matches(fr.Lo, fr.Hi)
	if exact == 0 || exact == gt.Count {
		t.Fatalf("band [%g, %g] matches %d of %d: pick one that splits the vector", fr.Lo, fr.Hi, exact, gt.Count)
	}

	aggCases := []struct {
		name, want string
		doctor     func(a *AggregateResult)
	}{
		{"incomplete", "incomplete", func(a *AggregateResult) { a.Complete = false }},
		{"count", "count", func(a *AggregateResult) { a.Count-- }},
		{"bytes_total", "bytes_total", func(a *AggregateResult) { a.BytesTotal += 4 }},
		{"bytes_touched", "bytes_touched", func(a *AggregateResult) { a.BytesTouched = 0 }},
		{"sum", "sum", func(a *AggregateResult) { a.Sum = gt.Sum + 2*a.ErrorBound + 1 }},
		{"mean", "mean", func(a *AggregateResult) { a.Mean += 2*a.MeanErrorBound + 1 }},
		{"min above exact", "min", func(a *AggregateResult) { a.Min = gt.Min + 1 }},
		{"min envelope short", "min", func(a *AggregateResult) { a.Min, a.MinErrorBound = gt.Min-2, 1 }},
		{"max below exact", "max", func(a *AggregateResult) { a.Max = gt.Max - 1 }},
		{"max envelope short", "max", func(a *AggregateResult) { a.Max, a.MaxErrorBound = gt.Max+2, 1 }},
	}
	for _, c := range aggCases {
		a := agg
		c.doctor(&a)
		expectRefused(t, "aggregate/"+c.name, c.want, gt.Aggregate(a))
	}

	filterCases := []struct {
		name, want string
		doctor     func(f *FilterResult)
	}{
		{"incomplete", "incomplete", func(f *FilterResult) { f.Complete = false }},
		{"bracket over-claims", "bracket", func(f *FilterResult) { f.MatchesMin = exact + 1 }},
		{"bracket misses", "bracket", func(f *FilterResult) { f.MatchesMax = exact - 1 }},
		{"estimate high", "estimate", func(f *FilterResult) { f.Matches = exact + f.ErrorBound + 1 }},
		{"estimate low", "estimate", func(f *FilterResult) { f.Matches = exact - f.ErrorBound - 1 }},
	}
	for _, c := range filterCases {
		f := fr
		c.doctor(&f)
		expectRefused(t, "filter/"+c.name, c.want, gt.Filter(f))
	}

	dsCases := []struct {
		name, want string
		doctor     func(d *DownsampleResult)
	}{
		{"incomplete", "incomplete", func(d *DownsampleResult) { d.Complete = false }},
		{"factor", "factor", func(d *DownsampleResult) { d.Factor = 8 }},
		{"a point short", "points", func(d *DownsampleResult) { d.Points = d.Points[:len(d.Points)-1] }},
		{"bounds shorter than points", "bounds", func(d *DownsampleResult) { d.Bounds = d.Bounds[:len(d.Bounds)-1] }},
		{"point outside its bound", "point 7", func(d *DownsampleResult) { d.Points[7] = gt.Points[7] + 2*d.Bounds[7] + 1 }},
	}
	for _, c := range dsCases {
		d := ds
		d.Points, d.Bounds = slices.Clone(ds.Points), slices.Clone(ds.Bounds)
		c.doctor(&d)
		expectRefused(t, "downsample/"+c.name, c.want, gt.Downsample(d))
	}

	got := slices.Clone(vals)
	if err := WithinT1(vec.Of32(got), vec.Of32(vals), s.T1()); err != nil {
		t.Fatalf("identical values refused: %v", err)
	}
	got[5] *= float32(1 + 2*s.T1())
	expectRefused(t, "t1/value", "value 5", WithinT1(vec.Of32(got), vec.Of32(vals), s.T1()))
	expectRefused(t, "t1/length", "values", WithinT1(vec.Of32(got[:9]), vec.Of32(vals), s.T1()))
	expectRefused(t, "t1/width", "fp64", WithinT1(vec.Of64(make([]float64, len(vals))), vec.Of32(vals), s.T1()))
}

// expectRefused fails unless err is a refusal whose text names want.
func expectRefused(t *testing.T, name, want string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: doctored answer accepted", name)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: refused with %q, want it to name %q", name, err, want)
	}
}
