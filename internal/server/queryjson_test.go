package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"avr/internal/store"
)

// jsonEdges are the float renderings encoding/json special-cases: signed
// zero, the 1e-6 and 1e21 switches to exponent form (and either side of
// them), exponents it cleans up (e-07 → e-7), subnormals, the extremes.
var jsonEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1e-9, 1.5e-10, 1e20, 1e21, 9.999999999999999e20,
	-1e21, 1e22, 1e100, 1e-100, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, math.MaxFloat64,
	-math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 0x1p-126, 0x1p-1022, 1 << 53, 100, 1e6, 12345678901234567890,
}

// jsonKeys need every kind of escaping encoding/json does: quotes,
// backslashes, control bytes, HTML-sensitive bytes, U+2028, invalid UTF-8.
var jsonKeys = []string{"", "k", "<k&\"\\\n\t\x00\u2028é\xff>", "pack-0000", "\x7f\u2029"}

// randFloat draws a finite float64 from a mix of edge values, arbitrary
// bit patterns (subnormals included), fp32-representable values and
// values spread over many binades.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	case 1:
		return jsonEdges[rng.Intn(len(jsonEdges))]
	case 2:
		return float64(float32(rng.NormFloat64() * 100))
	}
	return math.Ldexp(rng.Float64()-0.5, rng.Intn(160)-80)
}

func randStats(rng *rand.Rand) store.QueryStats {
	return store.QueryStats{BytesTouched: rng.Int63() - rng.Int63(), BytesTotal: rng.Int63(),
		BlocksAVR: rng.Intn(1000), BlocksRaw: rng.Intn(10) - 2, BlocksLossless: rng.Intn(10), Complete: rng.Intn(2) == 0}
}

// sameAsMarshalIndent holds a hand-written answer to json.MarshalIndent
// byte for byte, and to its verdict on unmarshalable values.
func sameAsMarshalIndent[T any](t *testing.T, v T, render func([]byte, *T) ([]byte, error)) {
	t.Helper()
	want, err := json.MarshalIndent(v, "", "  ")
	got, gerr := render([]byte("x"), &v)
	if (err == nil) != (gerr == nil) {
		t.Fatalf("errors differ: MarshalIndent %v, by hand %v (%+v)", err, gerr, v)
	}
	if err != nil && string(got) != "x" {
		t.Fatalf("a refused answer wrote %q", got[1:])
	}
	if err == nil && !bytes.Equal(got[1:], want) {
		t.Fatalf("bodies differ for %+v:\n by hand: %s\n MarshalIndent: %s", v, got[1:], want)
	}
}

// TestDownsampleJSONMatchesMarshalIndent holds the hand-written
// downsample body to json.MarshalIndent byte for byte: the float edges,
// empty, nil and one-point series, keys that need escaping, then 2 000
// random results.
func TestDownsampleJSONMatchesMarshalIndent(t *testing.T) {
	check := func(d store.DownsampleResult) { t.Helper(); sameAsMarshalIndent(t, d, appendDownsampleJSON) }
	check(store.DownsampleResult{Key: "edges", Width: 64, Factor: 16, Points: jsonEdges, Bounds: jsonEdges})
	check(store.DownsampleResult{Key: "empty", Width: 32, Factor: 16, Points: []float64{}, Bounds: []float64{}})
	check(store.DownsampleResult{Key: "nil"})
	check(store.DownsampleResult{Key: "one", Points: []float64{3.25}, Bounds: []float64{1e-9},
		QueryStats: store.QueryStats{BytesTouched: 1 << 40, BytesTotal: -1, BlocksAVR: 3, BlocksRaw: 2, BlocksLossless: 1, Complete: true}})
	for _, k := range jsonKeys {
		check(store.DownsampleResult{Key: k, Points: []float64{1}})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(store.DownsampleResult{Key: "bad", Points: []float64{1, bad}, Bounds: []float64{0, 0}})
		check(store.DownsampleResult{Key: "bad", Points: []float64{1}, Bounds: []float64{bad}})
	}

	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 2000; round++ {
		d := store.DownsampleResult{
			Key: string(rune('a' + round%26)), Width: 32 << (round & 1), Factor: 16, QueryStats: randStats(rng),
		}
		n := rng.Intn(40)
		d.Points, d.Bounds = make([]float64, n), make([]float64, n)
		for i := range d.Points {
			d.Points[i] = randFloat(rng)
			d.Bounds[i] = math.Abs(d.Points[i]) * rng.Float64() / 32
		}
		check(d)
	}
}

// TestPutAggregateFilterJSONMatchesMarshalIndent is the same differential
// for the other three hand-written answers: every float field through the
// edges and 3 000 random draws, every key that needs escaping, the
// embedded QueryStats at random, and each float field set to NaN and ±Inf
// once, which must refuse the answer as encoding/json does.
func TestPutAggregateFilterJSONMatchesMarshalIndent(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	put := func(key string, f func() float64) store.PutResult {
		return store.PutResult{Key: key, Values: rng.Intn(1 << 20), Blocks: rng.Intn(300), LosslessBlocks: rng.Intn(3),
			RawBytes: rng.Int63(), StoredBytes: rng.Int63() - rng.Int63(), Ratio: f()}
	}
	aggregate := func(key string, f func() float64) store.AggregateResult {
		return store.AggregateResult{Key: key, Width: 32 << rng.Intn(2), Count: rng.Int63(),
			Sum: f(), ErrorBound: f(), Mean: f(), MeanErrorBound: f(), Min: f(), MinErrorBound: f(), Max: f(), MaxErrorBound: f(),
			QueryStats: randStats(rng)}
	}
	filter := func(key string, f func() float64) store.FilterResult {
		return store.FilterResult{Key: key, Width: 32 << rng.Intn(2), Lo: f(), Hi: f(),
			Matches: rng.Int63(), MatchesMin: rng.Int63() - rng.Int63(), MatchesMax: rng.Int63(), ErrorBound: rng.Int63(),
			QueryStats: randStats(rng)}
	}
	check := func(key string, f func() float64) {
		t.Helper()
		sameAsMarshalIndent(t, put(key, f), appendPutJSON)
		sameAsMarshalIndent(t, aggregate(key, f), appendAggregateJSON)
		sameAsMarshalIndent(t, filter(key, f), appendFilterJSON)
	}
	for _, e := range jsonEdges {
		check("edge", func() float64 { return e })
	}
	for _, k := range jsonKeys {
		check(k, func() float64 { return randFloat(rng) })
	}
	for round := 0; round < 3000; round++ {
		check(string(rune('a'+round%26)), func() float64 { return randFloat(rng) })
	}
	// One bad float per answer, in each of its float fields in turn.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 8; field++ {
			i := 0
			f := func() float64 {
				i++
				if i-1 == field {
					return bad
				}
				return 1.5
			}
			if field < 1 {
				sameAsMarshalIndent(t, put("bad", f), appendPutJSON)
			}
			i = 0
			sameAsMarshalIndent(t, aggregate("bad", f), appendAggregateJSON)
			if field < 2 {
				i = 0
				sameAsMarshalIndent(t, filter("bad", f), appendFilterJSON)
			}
		}
	}
}
