package obs

import (
	"math"
	"testing"
)

func uniformHist(t *testing.T) *Histogram {
	t.Helper()
	h := NewHistogram("q", "v", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	return h
}

// On a uniform 1..100 distribution with decade buckets, linear
// interpolation recovers the true quantiles at bucket edges and close
// to them inside buckets.
func TestQuantileUniform(t *testing.T) {
	h := uniformHist(t)
	cases := []struct{ p, want, tol float64 }{
		{0, 1, 0},       // p<=0 → Min
		{1, 100, 0},     // p>=1 → Max
		{0.5, 50, 0.01}, // bucket edge: exact
		{0.9, 90, 0.01},
		{0.99, 99, 0.5},
		{0.25, 25, 1.5}, // mid-bucket: within interpolation error
		{0.75, 75, 1.5},
	}
	for _, c := range cases {
		if got := h.Summary().Quantile(c.p); math.Abs(got-c.want) > c.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", c.p, got, c.want, c.tol)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	h := uniformHist(t)
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := h.Summary().Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone: Quantile(%v)=%v < %v", p, q, prev)
		}
		prev = q
	}
}

func TestQuantileEdges(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Summary().Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile = %v, want 0", got)
	}
	var nilS *SyncHistogram
	if got := nilS.Summary().Quantile(0.5); got != 0 {
		t.Errorf("nil sync histogram Quantile = %v, want 0", got)
	}
	if got := (Summary{}).Quantile(0.5); got != 0 {
		t.Errorf("empty summary Quantile = %v, want 0", got)
	}

	// A single observation answers itself at every p.
	h := NewHistogram("one", "v", []float64{10, 100})
	h.Observe(42)
	for _, p := range []float64{0, 0.1, 0.5, 0.99, 1} {
		if got := h.Summary().Quantile(p); got != 42 {
			t.Errorf("single-observation Quantile(%v) = %v, want 42", p, got)
		}
	}
}

// Observations above the last bound interpolate between the last bound
// and Max instead of being unanswerable.
func TestQuantileOverflow(t *testing.T) {
	h := NewHistogram("ov", "v", []float64{10})
	h.Observe(5)
	h.Observe(100)
	h.Observe(200)
	// target rank 2.7 lands in the overflow bucket (counts: 1 below 10,
	// 2 overflow); interpolate (10, 200]: 10 + (2.7-1)/2 * 190 = 171.5.
	if got, want := h.Summary().Quantile(0.9), 171.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("overflow Quantile(0.9) = %v, want %v", got, want)
	}
	if got := h.Summary().Quantile(1); got != 200 {
		t.Errorf("overflow Quantile(1) = %v, want Max 200", got)
	}
}

// The interpolation range is clamped to [Min, Max]: quantiles never
// leave the observed range even when buckets are much wider than the
// data.
func TestQuantileClampedToObserved(t *testing.T) {
	h := NewHistogram("cl", "v", []float64{1000, 2000})
	h.Observe(500)
	h.Observe(510)
	h.Observe(520)
	for p := 0.0; p <= 1.0; p += 0.05 {
		q := h.Summary().Quantile(p)
		if q < 500 || q > 520 {
			t.Fatalf("Quantile(%v) = %v outside observed [500, 520]", p, q)
		}
	}
}

// A skewed two-bucket split: 90 observations ≤10, 10 in (10,100].
func TestQuantileSkewed(t *testing.T) {
	h := NewHistogram("sk", "v", []float64{10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	// p99: target 99 in the upper bucket; lo=10, hi=Max=50:
	// 10 + (99-90)/10 * 40 = 46.
	if got, want := h.Summary().Quantile(0.99), 46.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("skewed Quantile(0.99) = %v, want %v", got, want)
	}
	// Median is in the dense bucket, clamped to [Min=5, hi=10]:
	// 5 + 50/90 * 5 ≈ 7.78.
	if got := h.Summary().Quantile(0.5); got < 5 || got > 10 {
		t.Errorf("skewed Quantile(0.5) = %v outside dense bucket", got)
	}
}
