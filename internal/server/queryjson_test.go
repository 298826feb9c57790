package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"avr/internal/store"
)

// TestDownsampleJSONMatchesMarshalIndent holds the hand-written
// downsample body to json.MarshalIndent byte for byte: a table of the
// float renderings encoding/json special-cases, empty, nil and one-point
// series, keys that need escaping, then 2 000 random results.
func TestDownsampleJSONMatchesMarshalIndent(t *testing.T) {
	check := func(d store.DownsampleResult) {
		t.Helper()
		want, err := json.MarshalIndent(d, "", "  ")
		got, gerr := appendDownsampleJSON([]byte("x"), &d)
		if (err == nil) != (gerr == nil) {
			t.Fatalf("errors differ: MarshalIndent %v, by hand %v (%+v)", err, gerr, d)
		}
		if err == nil && !bytes.Equal(got[1:], want) {
			t.Fatalf("bodies differ for %+v:\n by hand: %s\n MarshalIndent: %s", d, got[1:], want)
		}
	}
	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1e-9, 1.5e-10, 1e20, 1e21, 9.999999999999999e20,
		-1e21, 1e22, 1e100, 1e-100, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64,
		-math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 0x1p-126, 0x1p-1022, 1 << 53, 100, 1e6, 12345678901234567890,
	}
	check(store.DownsampleResult{Key: "edges", Width: 64, Factor: 16, Points: edge, Bounds: edge})
	check(store.DownsampleResult{Key: "empty", Width: 32, Factor: 16, Points: []float64{}, Bounds: []float64{}})
	check(store.DownsampleResult{Key: "nil"})
	check(store.DownsampleResult{Key: "one", Points: []float64{3.25}, Bounds: []float64{1e-9},
		QueryStats: store.QueryStats{BytesTouched: 1 << 40, BytesTotal: -1, BlocksAVR: 3, BlocksRaw: 2, BlocksLossless: 1, Complete: true}})
	check(store.DownsampleResult{Key: "<k&\"\\\n\t\x00\u2028é\xff>", Points: []float64{1}})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(store.DownsampleResult{Key: "bad", Points: []float64{1, bad}, Bounds: []float64{0, 0}})
		check(store.DownsampleResult{Key: "bad", Points: []float64{1}, Bounds: []float64{bad}})
	}

	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 2000; round++ {
		d := store.DownsampleResult{
			Key: string(rune('a' + round%26)), Width: 32 << (round & 1), Factor: 16,
			QueryStats: store.QueryStats{BytesTouched: rng.Int63(), BytesTotal: rng.Int63(),
				BlocksAVR: rng.Intn(1000), BlocksRaw: rng.Intn(10), BlocksLossless: rng.Intn(10), Complete: round&2 == 0},
		}
		n := rng.Intn(40)
		d.Points, d.Bounds = make([]float64, n), make([]float64, n)
		for i := range d.Points {
			switch rng.Intn(4) {
			case 0: // any finite bit pattern, subnormals included
				for {
					if d.Points[i] = math.Float64frombits(rng.Uint64()); !math.IsNaN(d.Points[i]) && !math.IsInf(d.Points[i], 0) {
						break
					}
				}
			case 1:
				d.Points[i] = edge[rng.Intn(len(edge))]
			case 2:
				d.Points[i] = float64(float32(rng.NormFloat64() * 100))
			default:
				d.Points[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(160)-80)
			}
			d.Bounds[i] = math.Abs(d.Points[i]) * rng.Float64() / 32
		}
		check(d)
	}
}
