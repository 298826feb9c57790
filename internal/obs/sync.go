package obs

import "sync"

// SyncHistogram is a mutex-guarded Histogram for paths with concurrent
// observers (the avrd serving path). The simulator keeps using the bare
// Histogram: its per-access hot path is single-threaded per simulated
// system and must stay lock-free; a request-granular serving path can
// afford one uncontended lock per request. A nil *SyncHistogram is
// valid and observes nothing, like the bare type.
type SyncHistogram struct {
	mu sync.Mutex
	h  *Histogram
}

// NewSyncHistogram wraps h. The wrapper owns h; callers must not keep
// observing h directly.
func NewSyncHistogram(h *Histogram) *SyncHistogram {
	return &SyncHistogram{h: h}
}

// Observe records one value.
func (s *SyncHistogram) Observe(v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.h.Observe(v)
	s.mu.Unlock()
}

// Summary snapshots the histogram.
func (s *SyncHistogram) Summary() Summary {
	if s == nil {
		return Summary{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.Summary()
}
