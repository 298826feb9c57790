// Package server implements avrd, the AVR codec service: the fp32/fp64
// lossy codec exposed over HTTP with per-request error thresholds, a
// bounded admission layer that sheds load instead of queueing without
// limit, pooled codecs (a Codec is not concurrency-safe), graceful
// drain, and (with Config.Store) the persistent approximate block
// store. cmd/avrd is the daemon entry point; cmd/avrload drives it.
package server

import (
	"math"
	"sync"

	"avr"
)

// The codec pool quantizes thresholds onto a fixed grid so its key
// space is bounded. Without the grid, every distinct ?t1= float seen by
// the server mints a fresh sync.Pool entry forever — an unbounded-map
// memory leak an adversarial (or merely enthusiastic) client can drive
// at one map entry per request. The grid t1q = 2^(-k/8), k ∈ [1,240],
// spans ~0.917 down to 2^-30 in ~9% steps: finer than any caller can
// observe in achieved compression, and at most poolGridMax live keys.
const (
	poolGridSteps = 8 // grid points per octave of threshold
	poolGridMax   = 240
)

// QuantizeT1 snaps a requested threshold onto the pool grid, rounding
// DOWN (toward tighter error): the codec serving the request never has
// a looser bound than the caller asked for. Non-positive values select
// the experiment default. Requests below the grid floor (2^-30) are
// clamped up to it — the one case where the served bound exceeds the
// request, documented in the avrd usage.
//
// Clients that verify served bytes against a local codec must build
// that codec with the quantized threshold (cmd/avrload does).
func QuantizeT1(t1 float64) float64 {
	if t1 <= 0 {
		t1, _ = avr.DefaultThresholds()
	}
	// Smallest k with 2^(-k/8) ≤ t1, i.e. k = ceil(-8·log2(t1)); the
	// epsilon keeps on-grid inputs (like the 2^-5 default) from being
	// pushed a step tighter by floating-point noise in Log2.
	k := int(math.Ceil(-poolGridSteps*math.Log2(t1) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > poolGridMax {
		k = poolGridMax
	}
	return math.Exp2(-float64(k) / poolGridSteps)
}

// CodecPool hands out *avr.Codec instances keyed by their quantized t1
// error threshold. A Codec is not safe for concurrent use — its
// compressor carries scratch buffers reused across Encode calls — so
// the server borrows one codec per request and returns it afterwards.
// sync.Pool keeps steady-state churn at zero while letting idle codecs
// be reclaimed under memory pressure; the handoff through the pool is
// the synchronization point that makes cross-goroutine reuse race-clean.
type CodecPool struct {
	mu    sync.RWMutex
	pools map[float64]*sync.Pool
}

// NewCodecPool creates an empty pool.
func NewCodecPool() *CodecPool {
	return &CodecPool{pools: make(map[float64]*sync.Pool)}
}

// Get borrows a codec for threshold t1 (non-positive selects the
// experiment default), quantized per QuantizeT1. Pair with Put.
func (p *CodecPool) Get(t1 float64) *avr.Codec {
	t1 = QuantizeT1(t1)
	p.mu.RLock()
	sp := p.pools[t1]
	p.mu.RUnlock()
	if sp == nil {
		p.mu.Lock()
		if sp = p.pools[t1]; sp == nil {
			sp = &sync.Pool{New: func() any { return avr.NewCodec(t1) }}
			p.pools[t1] = sp
		}
		p.mu.Unlock()
	}
	return sp.Get().(*avr.Codec)
}

// Put returns a codec borrowed with Get(t1). The caller must not use c
// after Put.
func (p *CodecPool) Put(t1 float64, c *avr.Codec) {
	if c == nil {
		return
	}
	t1 = QuantizeT1(t1)
	p.mu.RLock()
	sp := p.pools[t1]
	p.mu.RUnlock()
	if sp != nil {
		sp.Put(c)
	}
}
