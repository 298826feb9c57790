// Package admit is the bounded admission controller shared by the
// serving tiers (avrd and the cluster router): a fixed number of worker
// slots, a bounded queue in front of them, and a Retry-After hint sized
// from how full that queue is. A tier sheds instead of queueing without
// bound — 429 when the queue is at capacity, 503 when a queued request
// outwaits the timeout — and how it words and counts that stays with the
// tier.
package admit

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// ErrQueueFull is Acquire's backpressure signal (the tiers' 429): the
// admission queue is at capacity.
var ErrQueueFull = errors.New("admit: admission queue full")

// Gate admits at most `workers` holders at a time and lets at most
// `depth` more wait, each for at most `timeout`.
type Gate struct {
	// slots is the worker semaphore: holding a token = executing.
	slots chan struct{}
	// queued counts requests waiting for a token; bounded by depth.
	queued  atomic.Int64
	depth   int64
	timeout time.Duration
}

// NewGate creates a gate with the given worker-slot count, queue depth
// and queue timeout.
func NewGate(workers, depth int, timeout time.Duration) *Gate {
	return &Gate{slots: make(chan struct{}, workers), depth: int64(depth), timeout: timeout}
}

// Acquire claims a worker slot, waiting in the bounded queue if none is
// free. It returns ErrQueueFull when the queue is at capacity (shed
// immediately), and the context's error when the wait outlives the
// queue timeout or ctx itself. On nil return the caller must Release.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > g.depth {
		g.queued.Add(-1)
		return ErrQueueFull
	}
	defer g.queued.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, g.timeout)
	defer cancel()
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns the slot claimed by a successful Acquire.
func (g *Gate) Release() { <-g.slots }

// Queued reports how many requests are waiting for a slot.
func (g *Gate) Queued() int64 { return g.queued.Load() }

// RetryAfter is the hint, in whole seconds, to send with a shed: see
// RetryAfterSeconds, applied to the gate's current occupancy.
func (g *Gate) RetryAfter() int {
	return RetryAfterSeconds(g.queued.Load(), g.depth, g.timeout)
}

// RetryAfterSeconds sizes a Retry-After hint from queue occupancy: it
// scales linearly from 1s at an empty queue up to the queue timeout
// (rounded up to whole seconds) at a full one, so a lightly loaded tier
// invites a fast retry while a saturated one pushes the herd back the
// full wait it would have spent queueing anyway.
func RetryAfterSeconds(queued, depth int64, timeout time.Duration) int {
	maxSecs := int(math.Ceil(timeout.Seconds()))
	if maxSecs < 1 {
		maxSecs = 1
	}
	if depth <= 0 {
		return maxSecs
	}
	if queued < 0 {
		queued = 0
	}
	if queued > depth {
		queued = depth
	}
	secs := int(math.Ceil(timeout.Seconds() * float64(queued) / float64(depth)))
	if secs < 1 {
		secs = 1
	}
	if secs > maxSecs {
		secs = maxSecs
	}
	return secs
}
