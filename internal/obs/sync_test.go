package obs

import (
	"sync"
	"testing"
)

func TestSyncHistogramConcurrentObserve(t *testing.T) {
	h := NewSyncHistogram(ServerLatencyHistogram())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != 8000 {
		t.Fatalf("count %d, want 8000", s.Count)
	}
	var bucketSum uint64
	for _, b := range s.Buckets {
		bucketSum += b.Count
	}
	if bucketSum+s.Overflow != s.Count {
		t.Fatalf("buckets %d + overflow %d != count %d", bucketSum, s.Overflow, s.Count)
	}
}

func TestSyncHistogramNilSafe(t *testing.T) {
	var h *SyncHistogram
	h.Observe(1)
	if s := h.Summary(); s.Count != 0 {
		t.Error("nil histogram summary non-empty")
	}
}
