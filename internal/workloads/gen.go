package workloads

import (
	"fmt"
	"math"
)

// Value generators for the serving tools (cmd/avrload, avrstore): raw
// datasets with the value-locality character of the benchmark inputs,
// without needing a simulated memory system. Each distribution stresses
// a different codec regime — smooth fields compress ~8:1, iid noise
// falls back to raw blocks, "mixed" exercises the outlier path.

// Distributions lists the generator names, most compressible first.
func Distributions() []string {
	return []string{"heat", "ramp", "wave", "mixed", "normal"}
}

// GenFloat32 generates n float32 values from the named distribution,
// deterministically in seed.
func GenFloat32(dist string, n int, seed uint64) ([]float32, error) {
	v64, err := GenFloat64(dist, n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i, v := range v64 {
		out[i] = float32(v)
	}
	return out, nil
}

// GenFloat64 generates n float64 values from the named distribution,
// deterministically in seed.
func GenFloat64(dist string, n int, seed uint64) ([]float64, error) {
	r := newRNG(seed)
	out := make([]float64, n)
	switch dist {
	case "heat":
		// A 2D temperature field sampled row-major: a warm ambient plus
		// a few gaussian hot spots, like the heat benchmark's input.
		// Smooth in memory order, so blocks downsample well.
		side := int(math.Ceil(math.Sqrt(float64(n))))
		if side < 1 {
			side = 1
		}
		// Wide bumps over a warm ambient keep per-pixel gradients within
		// the codec's default T1, as the benchmark's settled field does —
		// sharp spikes belong to "mixed".
		type bump struct{ x, y, amp, width float64 }
		bumps := make([]bump, 4)
		for i := range bumps {
			bumps[i] = bump{
				x: r.float() * float64(side), y: r.float() * float64(side),
				amp: 10 + 20*r.float(), width: (0.25 + 0.25*r.float()) * float64(side),
			}
		}
		for i := range out {
			x, y := float64(i%side), float64(i/side)
			t := 150.0
			for _, b := range bumps {
				d2 := (x-b.x)*(x-b.x) + (y-b.y)*(y-b.y)
				t += b.amp * math.Exp(-d2/(2*b.width*b.width))
			}
			out[i] = t
		}
	case "ramp":
		// A linear ramp with small noise: the geo-ordered field shape
		// (wrf/kmeans elevation inputs).
		base := 100 + 900*r.float()
		slope := (0.01 + 0.1*r.float()) * base / float64(n+1)
		for i := range out {
			out[i] = base + slope*float64(i) + base*1e-4*r.norm()
		}
	case "wave":
		// Superposed sinusoids (lattice/lbm-like periodic fields).
		a1, a2 := 10+20*r.float(), 1+3*r.float()
		p1, p2 := 30+40*r.float(), 7+5*r.float()
		base := 50 + 100*r.float()
		for i := range out {
			out[i] = base + a1*math.Sin(float64(i)/p1) + a2*math.Cos(float64(i)/p2)
		}
	case "mixed":
		// Smooth field with ~1% large spikes: exercises the outlier
		// bitmap/storage path without forcing raw fallback.
		base := 200 + 100*r.float()
		for i := range out {
			out[i] = base + 5*math.Sin(float64(i)/25)
			if r.float() < 0.01 {
				out[i] *= 5 + 10*r.float()
			}
		}
	case "normal":
		// iid noise: incompressible, every block stores raw.
		for i := range out {
			out[i] = r.norm() * math.Exp2(float64(int(r.next()%40))-20)
		}
	default:
		return nil, fmt.Errorf("workloads: unknown distribution %q (have %v)",
			dist, Distributions())
	}
	return out, nil
}
