package workloads

import (
	"math"

	"avr/internal/compress"
	"avr/internal/mem"
	"avr/internal/sim"
)

// BScholes is the financial forecasting benchmark (PARSEC/AxBench
// blackscholes): it prices stock options from historical parameters with
// the Black-Scholes closed form. The option parameter arrays are
// approximable; the computed prices are exact outputs. As in the PARSEC
// input, many option entries share identical field values (which the
// Doppelgänger design exploits), and the kernel is compute-bound, so all
// designs have little impact — matching the paper.
type BScholes struct {
	n int
	// Parallel parameter arrays (approx): spot, strike, rate, vol, time.
	spot, strike, rate, vol, ttm uint64
	prices                       uint64 // exact output array
}

// NewBScholes creates the benchmark.
func NewBScholes() *BScholes { return &BScholes{} }

// Name implements Workload.
func (b *BScholes) Name() string { return "bscholes" }

// Setup implements Workload.
func (b *BScholes) Setup(sys *sim.System, sc Scale) { setup(b, sys.Space, sc) }

func (b *BScholes) layout(s *mem.Space, sc Scale) {
	switch sc {
	case ScaleSmall:
		b.n = 160 << 10 // 5 arrays × 640 kB ≈ 3.2 MiB approx
	default:
		b.n = 512 << 10 // ≈ 10 MiB
	}
	bytes := uint64(b.n) * 4
	b.spot = s.AllocApprox(bytes, compress.Float32)
	b.strike = s.AllocApprox(bytes, compress.Float32)
	b.rate = s.AllocApprox(bytes, compress.Float32)
	b.vol = s.AllocApprox(bytes, compress.Float32)
	b.ttm = s.AllocApprox(bytes, compress.Float32)
	b.prices = s.Alloc(bytes, 64)
}

// fill writes clustered option parameters — a few distinct
// strikes/rates/expiries with small per-option perturbations.
func (b *BScholes) fill(s *mem.Space) {
	// PARSEC ships ~1000 unique option tuples replicated to the desired
	// size; many entries are therefore bit-identical, which is exactly
	// the redundancy the Doppelgänger design exploits.
	const unique = 1024
	r := newRNG(87)
	strikes := []float32{36, 40, 44, 48, 52}
	rates := []float32{0.025, 0.0275, 0.03}
	expiries := []float32{0.25, 0.5, 1.0}
	type opt struct{ s, k, r, v, t float32 }
	tuples := make([]opt, unique)
	for i := range tuples {
		tuples[i] = opt{
			s: 42 + float32(r.norm())*1.5,
			k: strikes[i%len(strikes)],
			r: rates[(i/5)%len(rates)],
			v: 0.2 + float32(r.float())*0.2,
			t: expiries[(i/15)%len(expiries)],
		}
	}
	// Options cluster in runs (market data grouped by underlying), so
	// consecutive entries mostly share field values: this is what gives
	// AVR its moderate compression ratio on bscholes and Doppelgänger its
	// exact duplicates.
	const run = 20
	for i := 0; i < b.n; i++ {
		a := uint64(i) * 4
		o := tuples[(i/run)%unique]
		s.StoreF32(b.spot+a, o.s)
		s.StoreF32(b.strike+a, o.k)
		s.StoreF32(b.rate+a, o.r)
		s.StoreF32(b.vol+a, o.v)
		s.StoreF32(b.ttm+a, o.t)
	}
}

// cnd is the cumulative normal distribution via erf.
func cnd(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }

// Run implements Workload: one pricing pass over the options, which are
// embarrassingly parallel: each core prices its own range.
func (b *BScholes) Run(c Core) {
	lo, hi := shard(0, b.n, c.ID(), c.N())
	for i := lo; i < hi; i++ {
		a := uint64(i) * 4
		s := float64(c.LoadF32(b.spot + a))
		k := float64(c.LoadF32(b.strike + a))
		r := float64(c.LoadF32(b.rate + a))
		v := float64(c.LoadF32(b.vol + a))
		t := float64(c.LoadF32(b.ttm + a))
		if s <= 0 || k <= 0 || v <= 0 || t <= 0 {
			c.Store32(b.prices+a, 0)
			continue
		}
		sq := v * math.Sqrt(t)
		d1 := (math.Log(s/k) + (r+v*v/2)*t) / sq
		d2 := d1 - sq
		price := s*cnd(d1) - k*math.Exp(-r*t)*cnd(d2)
		c.Compute(600) // log, exp, erf, div chains: compute bound
		c.StoreF32(b.prices+a, float32(price))
	}
	c.Barrier()
}

// Output implements Workload: the option prices, sampled.
func (b *BScholes) Output(sys *sim.System) []float64 {
	out := make([]float64, 0, b.n/4)
	for i := 0; i < b.n; i += 4 {
		out = append(out, float64(sys.Space.LoadF32(b.prices+uint64(i)*4)))
	}
	return out
}
