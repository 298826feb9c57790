package server

import (
	"math"
	"sync"
	"testing"

	"avr"
)

func TestQuantizeT1Grid(t *testing.T) {
	def, _ := avr.DefaultThresholds()

	// The default and other exact grid points are fixed points.
	for _, exact := range []float64{def, 0.125, 1.0 / 256, math.Exp2(-30), math.Exp2(-1.0 / 8)} {
		if got := QuantizeT1(exact); got != exact {
			t.Errorf("QuantizeT1(%g) = %g, want fixed point", exact, got)
		}
	}
	if got := QuantizeT1(0); got != def {
		t.Errorf("QuantizeT1(0) = %g, want default %g", got, def)
	}
	if got := QuantizeT1(-1); got != def {
		t.Errorf("QuantizeT1(-1) = %g, want default %g", got, def)
	}

	// Snap-down: the served bound never exceeds the request (above the
	// grid floor), and never by more than one grid step (~9%).
	for i := 0; i < 10000; i++ {
		t1 := math.Exp2(-30 + 29.9*float64(i)/10000) // sweep (2^-30, ~0.93)
		q := QuantizeT1(t1)
		if q > t1*(1+1e-12) {
			t.Fatalf("QuantizeT1(%g) = %g loosens the bound", t1, q)
		}
		if q < t1*math.Exp2(-1.0/8)*(1-1e-12) {
			t.Fatalf("QuantizeT1(%g) = %g more than one grid step tight", t1, q)
		}
	}

	// Below the grid floor, requests clamp up to the floor.
	if got, floor := QuantizeT1(1e-12), math.Exp2(-30); got != floor {
		t.Errorf("QuantizeT1(1e-12) = %g, want grid floor %g", got, floor)
	}
	// Near 1, requests clamp down to the grid ceiling.
	if got, ceil := QuantizeT1(0.999), math.Exp2(-1.0/8); got != ceil {
		t.Errorf("QuantizeT1(0.999) = %g, want grid ceiling %g", got, ceil)
	}
}

// TestCodecPoolBounded hammers the pool with far more distinct t1
// values than the grid has points — the regression test for the
// unbounded-map leak the grid exists to prevent.
func TestCodecPoolBounded(t *testing.T) {
	p := NewCodecPool()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 20000; i++ {
				// Adversarial spread: dense sweep of distinct floats across
				// the whole (0,1) range, different per worker.
				t1 := (float64(i) + float64(w)/float64(workers)) / 20001
				c := p.Get(t1)
				p.Put(t1, c)
			}
		}(w)
	}
	wg.Wait()
	if n := len(p.pools); n > poolGridMax {
		t.Fatalf("pool grew to %d buckets from distinct t1 values, cap is %d", n, poolGridMax)
	}
	// Sanity: the hammer actually exercised many buckets.
	if n := len(p.pools); n < 20 {
		t.Fatalf("hammer only touched %d buckets; test is not exercising the grid", n)
	}
}

// BenchmarkCodecPoolGetPut measures the per-request pool overhead
// (quantize + map lookup + sync.Pool handoff). Steady state must not
// allocate: this sits on every serving-path request.
func BenchmarkCodecPoolGetPut(b *testing.B) {
	p := NewCodecPool()
	p.Put(0.1, p.Get(0.1)) // warm the bucket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := p.Get(0.1)
		p.Put(0.1, c)
	}
}

// TestPoolQuantizedCodecMatchesDirect: a codec borrowed for an off-grid
// threshold encodes identically to a direct codec built at the
// quantized threshold — the contract avrload's verification rests on.
func TestPoolQuantizedCodecMatchesDirect(t *testing.T) {
	p := NewCodecPool()
	vals := make([]float32, 2048)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 50.0))
	}
	for _, t1 := range []float64{0.1, 0.03, 0.004, 0.7} {
		c := p.Get(t1)
		got, err := c.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		enc := append([]byte(nil), got...)
		p.Put(t1, c)
		want, err := avr.NewCodec(QuantizeT1(t1)).Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(want) {
			t.Fatalf("t1=%g: pooled codec output differs from direct codec at quantized threshold", t1)
		}
	}
}
