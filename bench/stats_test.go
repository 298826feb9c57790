package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", v, c.q, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", v)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestHighestTail(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		label string
	}{
		{99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"},
	} {
		if label, _ := highestTail(seq(c.n)); label != c.label {
			t.Errorf("highestTail of %d samples = %q, want %q", c.n, label, c.label)
		}
	}
	if supportsTail(999, 0.99) || !supportsTail(1000, 0.99) {
		t.Errorf("p99 needs exactly 1000 samples to leave ten beyond it")
	}
}

// A stall must not move the throughput statistic: the rate over each op
// kind's fastest three quarters of cycles is the same whether or not a
// few cycles sat behind an fsync, and a slow op kind is trimmed within
// itself, not dropped.
func TestKeptRate(t *testing.T) {
	steady := map[string][]cycle{}
	stalled := map[string][]cycle{}
	for i := 0; i < 100; i++ {
		get, put := cycle{s: 0.001, values: 1000}, cycle{s: 0.004, values: 1000}
		steady["get"] = append(steady["get"], get)
		steady["put"] = append(steady["put"], put)
		if i%10 == 0 {
			get.s, put.s = 0.3, 0.3 // one cycle in ten stalls
		}
		stalled["get"] = append(stalled["get"], get)
		stalled["put"] = append(stalled["put"], put)
	}
	// 75 gets of 1 ms and 75 puts of 4 ms move 150 000 values in 0.375 s
	// of one client's time; two clients move twice that per second.
	want := 2 * 150000 / 0.375
	a, leftA := keptRate(steady, keepShare, 2)
	b, leftB := keptRate(stalled, keepShare, 2)
	if math.Abs(a-want) > 1e-6 || math.Abs(b-want) > 1e-6 {
		t.Errorf("rate %v without stalls, %v with, want %v both times", a, b, want)
	}
	if math.Abs(leftA-0.25) > 1e-9 || !(leftB > 0.9) {
		t.Errorf("share of time left out: %v without stalls (want 0.25), %v with (want > 0.9)", leftA, leftB)
	}
	// Every cycle kept is the plain rate: values over the clients' time.
	if all, left := keptRate(steady, 1, 2); math.Abs(all-2*200000/0.5) > 1e-6 || left != 0 {
		t.Errorf("rate over every cycle = %v, left out %v", all, left)
	}
	if one, _ := keptRate(map[string][]cycle{"mput": {{s: 0.02, values: 8}}}, keepShare, 1); math.Abs(one-400) > 1e-9 {
		t.Errorf("a kind with one cycle keeps it: rate %v, want 400", one)
	}
}

func TestRatioAndGeomean(t *testing.T) {
	if ratio(1, 0) != 0 {
		t.Errorf("ratio with a zero base must read 0, not Inf")
	}
	if got := geomean([]float64{0.25, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("geomean(0.25, 1) = %v, want 0.5", got)
	}
}
