package readcache

import (
	"strconv"
	"sync"
)

// strideTracker is the confidence-gated stride detector behind Observe:
// keys ending in a decimal integer ("ts-00041") are split into a stream
// prefix and a sequence number, and each prefix carries a tiny
// last/stride/confidence state machine — the same predict-when-confident,
// fall-through-when-not gate as the paper's PFE (and the LVA load-value
// approximator): two consecutive observations with the same non-zero
// stride arm it (prefetchMinConfidence), after which the next
// prefetchDepth keys along the stride are pulled in. A wrong guess costs one
// wasted fill; it never serves wrong data, because prefetched lines go
// through the same validated-hit path as demand fills.
type strideTracker struct {
	mu      sync.Mutex
	streams map[string]*stream
}

// stream is one per-prefix predictor.
type stream struct {
	last   int64
	stride int64
	conf   int
}

const (
	// maxStreams bounds the tracker's memory against unbounded key-prefix
	// cardinality; over it, an arbitrary stream is recycled.
	maxStreams = 512
	// prefetchDepth is how many predicted keys past the last observed one
	// are pulled in.
	prefetchDepth = 2
	// prefetchMinConfidence is how many consecutive same-stride
	// observations arm the prefetcher.
	prefetchMinConfidence = 2
)

func newStrideTracker() *strideTracker {
	return &strideTracker{streams: make(map[string]*stream)}
}

// splitKey separates a trailing decimal integer from its prefix without
// allocating. Keys with no digit tail (or an absurdly long one) are not
// predictable streams.
func splitKey(key string) (prefix string, n int64, ok bool) {
	i := len(key)
	for i > 0 && key[i-1] >= '0' && key[i-1] <= '9' {
		i--
	}
	digits := len(key) - i
	if digits == 0 || digits > 18 {
		return "", 0, false
	}
	n, err := strconv.ParseInt(key[i:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return key[:i], n, true
}

// observe advances the prefix's predictor and, when armed, queues
// prefetch fills for the next prefetchDepth keys along the stride.
func (t *strideTracker) observe(c *Cache, key string) {
	prefix, n, ok := splitKey(key)
	if !ok {
		return
	}
	t.mu.Lock()
	s := t.streams[prefix]
	if s == nil {
		if len(t.streams) >= maxStreams {
			for k := range t.streams {
				delete(t.streams, k)
				break
			}
		}
		s = &stream{last: n}
		t.streams[prefix] = s
		t.mu.Unlock()
		return
	}
	d := n - s.last
	s.last = n
	if d == 0 {
		// A repeat (the hot-key case) is neither confirmation nor
		// contradiction; the stride survives it.
		t.mu.Unlock()
		return
	}
	if d == s.stride {
		s.conf++
	} else {
		s.stride, s.conf = d, 1
	}
	stride, conf := s.stride, s.conf
	t.mu.Unlock()
	if conf < prefetchMinConfidence {
		return
	}
	// The number is re-rendered with the observed key's digit count so
	// zero-padded sequences ("ts-00041" → "ts-00042") predict real keys;
	// overflow past the padding falls out of the namespace and simply
	// never hits.
	width := len(key) - len(prefix)
	for k := 1; k <= prefetchDepth; k++ {
		next := n + stride*int64(k)
		if next < 0 {
			break
		}
		pred := prefix + pad(next, width)
		if c.Contains(pred) {
			continue
		}
		c.requestFill(pred)
	}
}

// pad renders v in decimal, left-padded with zeros to width (more
// digits than width render in full).
func pad(v int64, width int) string {
	s := strconv.FormatInt(v, 10)
	for len(s) < width {
		s = "0" + s
	}
	return s
}
