package admit

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetryAfterSeconds pins the queue-derived hint both tiers send
// with a 429 (the union of the tables avrd and the router each kept for
// their own copy of this function).
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name    string
		queued  int64
		depth   int64
		timeout time.Duration
		want    int
	}{
		{"empty queue invites fast retry", 0, 32, 2 * time.Second, 1},
		{"half full of a 2s timeout", 16, 32, 2 * time.Second, 1},
		{"full queue pushes the full timeout", 32, 32, 2 * time.Second, 2},
		{"full queue long timeout", 32, 32, 10 * time.Second, 10},
		{"half full rounds up", 16, 32, 3 * time.Second, 2},
		{"quarter full", 8, 32, 4 * time.Second, 1},
		{"deep queue long timeout", 96, 128, 8 * time.Second, 6},
		{"queued above depth clamps to timeout", 100, 32, 2 * time.Second, 2},
		{"negative queued clamps to floor", -5, 32, 2 * time.Second, 1},
		{"zero depth falls back to timeout", 7, 0, 3 * time.Second, 3},
		{"no queue at all: worst case", 0, 0, 2 * time.Second, 2},
		{"sub-second timeout still hints 1s", 4, 8, 100 * time.Millisecond, 1},
		{"fractional timeout rounds up", 32, 32, 1500 * time.Millisecond, 2},
	}
	for _, tc := range cases {
		if got := RetryAfterSeconds(tc.queued, tc.depth, tc.timeout); got != tc.want {
			t.Errorf("%s: RetryAfterSeconds(%d, %d, %v) = %d, want %d",
				tc.name, tc.queued, tc.depth, tc.timeout, got, tc.want)
		}
	}
}

// TestGateShedsAndTimesOut walks one gate through its three answers:
// admitted, queue full (immediately), and timed out in the queue.
func TestGateShedsAndTimesOut(t *testing.T) {
	g := NewGate(1, 1, 50*time.Millisecond)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("first Acquire: %v", err)
	}

	// One waiter fits in the queue and times out there; while it waits, a
	// second arrival finds the queue full.
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- g.Acquire(ctx) }()
	for g.Queued() != 1 {
		time.Sleep(time.Millisecond)
	}
	if err := g.Acquire(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Acquire with a full queue = %v, want ErrQueueFull", err)
	}
	if got := g.RetryAfter(); got != 1 {
		t.Errorf("RetryAfter with a full 50ms queue = %d, want 1", got)
	}
	if err := <-waiterErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire = %v, want deadline exceeded", err)
	}
	if g.Queued() != 0 {
		t.Fatalf("Queued = %d after the waiter left, want 0", g.Queued())
	}

	// A cancelled caller leaves the queue with its own error.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := g.Acquire(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on a cancelled context = %v, want canceled", err)
	}

	// Release hands the slot to the next arrival.
	g.Release()
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	g.Release()
}
