package simd

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// The reductions are pinned to their pure-Go forms — exact equality,
// since integer arithmetic does not depend on evaluation order. On a
// machine without AVX2 the exported forms are the Go forms and the
// comparison is trivially true; the 64-bit pair is checked against
// math/big as well.

var edges32 = []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}

// fixedCase fills x with one of a few adversarial mixes.
func fixedCase(rng *rand.Rand, x []int32, mode int) {
	for i := range x {
		switch mode {
		case 0:
			x[i] = int32(rng.Uint32())
		case 1:
			x[i] = edges32[rng.Intn(len(edges32))]
		case 2:
			x[i] = math.MinInt32
		case 3:
			x[i] = math.MaxInt32
		default:
			x[i] = int32(rng.Intn(1<<20) - 1<<19) // a codec-like magnitude
		}
	}
}

func checkReduce32(t testing.TB, x []int32) {
	t.Helper()
	s, a, mn, mx := ReduceFixed32(x)
	ws, wa, wmn, wmx := reduceFixed32Go(x)
	if s != ws || a != wa || mn != wmn || mx != wmx {
		t.Fatalf("ReduceFixed32(%d values) = (%d, %d, %d, %d), pure Go (%d, %d, %d, %d)",
			len(x), s, a, mn, mx, ws, wa, wmn, wmx)
	}
}

func checkCount32(t testing.TB, x []int32, lo, hi [3]int32) {
	t.Helper()
	got := CountRanges32(x, &lo, &hi)
	var want [3]int
	for _, v := range x {
		for k := range want {
			if lo[k] <= v && v <= hi[k] {
				want[k]++
			}
		}
	}
	if got != want {
		t.Fatalf("CountRanges32(%d values, lo %v, hi %v) = %v, want %v", len(x), lo, hi, got, want)
	}
}

func TestReduceFixed32MatchesPureGo(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	buf := make([]int32, 257)
	for n := 0; n <= 256; n++ {
		for mode := 0; mode < 5; mode++ {
			x := buf[1 : 1+n] // off the allocation's alignment
			fixedCase(rng, x, mode)
			checkReduce32(t, x)
		}
	}
	if s, a, mn, mx := ReduceFixed32(nil); s != 0 || a != 0 || mn != math.MaxInt32 || mx != math.MinInt32 {
		t.Fatalf("empty reduction = (%d, %d, %d, %d)", s, a, mn, mx)
	}
}

func TestCountRanges32MatchesPureGo(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ranges := [][2]int32{
		{math.MinInt32, math.MaxInt32}, // full
		{1, 0},                         // empty
		{math.MaxInt32, math.MinInt32}, // empty, hi−lo wraps to 1
		{0, 0}, {-1, -1}, {math.MinInt32, math.MinInt32}, {math.MaxInt32, math.MaxInt32},
		{math.MinInt32, -1}, {0, math.MaxInt32}, {-1 << 18, 1 << 18}, {5, 4},
	}
	buf := make([]int32, 257)
	for n := 0; n <= 256; n++ {
		for mode := 0; mode < 5; mode++ {
			x := buf[1 : 1+n]
			fixedCase(rng, x, mode)
			var lo, hi [3]int32
			for k := range lo {
				r := ranges[rng.Intn(len(ranges))]
				if rng.Intn(3) == 0 {
					r = [2]int32{int32(rng.Uint32()), int32(rng.Uint32())}
				}
				lo[k], hi[k] = r[0], r[1]
			}
			checkCount32(t, x, lo, hi)
		}
	}
}

func TestReduceFixed64MatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 400; round++ {
		x := make([]int64, rng.Intn(129))
		for i := range x {
			switch round % 4 {
			case 0:
				x[i] = int64(rng.Uint64())
			case 1:
				x[i] = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}[rng.Intn(5)]
			case 2:
				x[i] = math.MinInt64
			default:
				x[i] = rng.Int63n(1<<61) - 1<<60
			}
		}
		s, a, mn, mx := ReduceFixed64(x)
		// The kernel and the Go loop hand back the same integer partials.
		pg := [6]int64{4: math.MaxInt64, 5: math.MinInt64}
		reduceFixed64Go(x, &pg)
		if gs, ga := float64(pg[0])*(1<<16)+float64(pg[1]), float64(pg[2])*(1<<16)+float64(pg[3]); s != gs || a != ga || mn != pg[4] || mx != pg[5] {
			t.Fatalf("round %d: ReduceFixed64 = (%g, %g, %d, %d), pure Go (%g, %g, %d, %d)", round, s, a, mn, mx, gs, ga, pg[4], pg[5])
		}
		ws, wa := new(big.Int), new(big.Int)
		wmn, wmx := int64(math.MaxInt64), int64(math.MinInt64)
		for _, v := range x {
			b := big.NewInt(v)
			ws.Add(ws, b)
			wa.Add(wa, b.Abs(b))
			wmn, wmx = min(wmn, v), max(wmx, v)
		}
		fs, _ := new(big.Float).SetInt(ws).Float64()
		fa, _ := new(big.Float).SetInt(wa).Float64()
		if tol := fa * 0x1p-51; math.Abs(s-fs) > tol || math.Abs(a-fa) > tol || mn != wmn || mx != wmx {
			t.Fatalf("round %d: ReduceFixed64 = (%g, %g, %d, %d), exact (%g, %g, %d, %d)",
				round, s, a, mn, mx, fs, fa, wmn, wmx)
		}
		lo := [3]int64{math.MinInt64, 1, int64(rng.Uint64())}
		hi := [3]int64{math.MaxInt64, 0, int64(rng.Uint64())}
		var want [3]int
		for _, v := range x {
			for k := range want {
				if lo[k] <= v && v <= hi[k] {
					want[k]++
				}
			}
		}
		if got := CountRanges64(x, &lo, &hi); got != want {
			t.Fatalf("round %d: CountRanges64 = %v, want %v", round, got, want)
		}
	}
}

func checkCount64(t testing.TB, x []int64, lo, hi [3]int64) {
	t.Helper()
	got := CountRanges64(x, &lo, &hi)
	var want [3]int
	for _, v := range x {
		for k := range want {
			if lo[k] <= v && v <= hi[k] {
				want[k]++
			}
		}
	}
	if got != want {
		t.Fatalf("CountRanges64(%d values, lo %v, hi %v) = %v, want %v", len(x), lo, hi, got, want)
	}
}

func TestCountRanges64MatchesPureGo(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	ranges := [][2]int64{
		{math.MinInt64, math.MaxInt64}, // full
		{1, 0},                         // empty
		{math.MaxInt64, math.MinInt64}, // empty, hi−lo wraps to 1
		{0, 0}, {-1, -1}, {math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
		{math.MinInt64, -1}, {0, math.MaxInt64}, {-1 << 40, 1 << 40}, {5, 4},
	}
	buf := make([]int64, 129)
	for n := 0; n <= 128; n++ {
		for mode := 0; mode < 4; mode++ {
			x := buf[1 : 1+n] // off the allocation's alignment
			for i := range x {
				switch mode {
				case 0:
					x[i] = int64(rng.Uint64())
				case 1:
					x[i] = edges[rng.Intn(len(edges))]
				case 2:
					x[i] = rng.Int63n(1<<41) - 1<<40
				default:
					x[i] = int64(rng.Intn(9) - 4)
				}
			}
			var lo, hi [3]int64
			for k := range lo {
				r := ranges[rng.Intn(len(ranges))]
				if rng.Intn(3) == 0 {
					r = [2]int64{int64(rng.Uint64()), int64(rng.Uint64())}
				}
				lo[k], hi[k] = r[0], r[1]
			}
			checkCount64(t, x, lo, hi)
		}
	}
}

// FuzzCountRanges64 holds CountRanges64 — the AVX-512 body over whole
// 8-value groups and the pure-Go tail — to a direct count on arbitrary
// values, lengths and ranges.
func FuzzCountRanges64(f *testing.F) {
	f.Add([]byte{}, int64(0), int64(0), int64(1), int64(0), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(make([]byte, 8*37), int64(-1), int64(1), int64(0), int64(0), int64(math.MaxInt64), int64(math.MinInt64))
	seed := make([]byte, 8*128)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, int64(-1<<40), int64(1<<40), int64(-5), int64(5), int64(0), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, data []byte, lo0, hi0, lo1, hi1, lo2, hi2 int64) {
		x := make([]int64, len(data)/8)
		for i := range x {
			x[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkCount64(t, x, [3]int64{lo0, lo1, lo2}, [3]int64{hi0, hi1, hi2})
	})
}

// FuzzReduceFixed32 holds both fp32 reductions to their pure-Go forms on
// arbitrary values, lengths and thresholds.
func FuzzReduceFixed32(f *testing.F) {
	f.Add([]byte{}, int32(0), int32(0), int32(1), int32(0), int32(math.MinInt32), int32(math.MaxInt32))
	f.Add(make([]byte, 4*37), int32(-1), int32(1), int32(0), int32(0), int32(math.MaxInt32), int32(math.MinInt32))
	seed := make([]byte, 4*256)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, int32(-1<<20), int32(1<<20), int32(-5), int32(5), int32(0), int32(math.MaxInt32))
	f.Fuzz(func(t *testing.T, data []byte, lo0, hi0, lo1, hi1, lo2, hi2 int32) {
		x := make([]int32, len(data)/4)
		for i := range x {
			x[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkReduce32(t, x)
		checkCount32(t, x, [3]int32{lo0, lo1, lo2}, [3]int32{hi0, hi1, hi2})
	})
}
