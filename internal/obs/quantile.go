package obs

// Quantile estimates the p-quantile (p in [0,1]) of the observed
// distribution by linear interpolation within the bucket holding the
// target rank — the same estimator Prometheus's histogram_quantile
// applies to the exposition this package serves, so avrtop and a PromQL
// query over /metrics agree on what "p99" means.
//
// The interpolation range of a bucket is clamped to [Min, Max]: the
// first populated bucket cannot start below the smallest observation
// and the last cannot end above the largest, which also gives the
// overflow bucket (no upper bound of its own) a finite right edge.
// p <= 0 returns Min, p >= 1 returns Max, and an empty summary returns
// 0.
func (s Summary) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 1 {
		return s.Max
	}
	target := p * float64(s.Count)
	cum := 0.0
	lo := s.Min
	for _, b := range s.Buckets {
		if b.Count == 0 {
			// An empty bucket still raises the lower edge of whatever
			// populated bucket follows it.
			if b.Le > lo {
				lo = b.Le
			}
			continue
		}
		hi := b.Le
		if hi > s.Max {
			hi = s.Max
		}
		if lo > hi {
			lo = hi
		}
		next := cum + float64(b.Count)
		if next >= target {
			return lo + (target-cum)/float64(b.Count)*(hi-lo)
		}
		cum = next
		if b.Le > lo {
			lo = b.Le
		}
	}
	if s.Overflow > 0 {
		hi := s.Max
		if lo > hi {
			lo = hi
		}
		return lo + (target-cum)/float64(s.Overflow)*(hi-lo)
	}
	return s.Max
}
