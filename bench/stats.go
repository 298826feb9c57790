package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of vals by linear
// interpolation between order statistics, the same rule as Python's
// statistics.quantiles(method="inclusive"). vals need not be sorted and
// is not modified. An empty input yields 0.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers, not a
// percentile.
const tailSamples = 10

// highestTail returns the highest of p90, p99 and p99.9 that has at
// least tailSamples samples beyond it, and its label. With too few
// samples for p90 it returns ("", 0).
func highestTail(vals []float64) (label string, value float64) {
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if supportsTail(len(vals), t.q) {
			return t.label, quantile(vals, t.q)
		}
	}
	return "", 0
}

// supportsTail reports whether n samples leave at least tailSamples
// beyond the q-quantile.
func supportsTail(n int, q float64) bool {
	return float64(n)*(1-q) >= tailSamples-1e-9 // 100*(1-0.9) is 9.999…
}

// geomean is the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// ratio returns num/den, or 0 when den is 0 — a layer that was never
// called has no rate, and its counters read 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// keepShare is the share of each op kind's cycles, fastest first, that
// work_per_s is taken over. On this class of sandbox the hypervisor
// takes a vCPU away for milliseconds at a time and an fsync of the
// virtual disk takes anything from 50 to 400 ms; both land in a few very
// long cycles whose number differs from run to run by more than any
// bound the driver allows (README, "Steadiness"). What they add is
// one-sided, so the statistic is one-sided too: the slowest quarter of
// every kind's cycles is left out, kind by kind, so that a slow kind is
// not dropped wholesale.
const keepShare = 0.75

// keptRate returns the values moved per second of client time by n
// closed-loop clients over the fastest keep share of each op kind's
// cycles (at least one cycle of every kind), and the share of all cycle
// time that lies in the cycles left out.
func keptRate(cycles map[string][]cycle, keep float64, n int) (rate, leftOut float64) {
	var values, kept, all float64
	for _, cs := range cycles {
		s := append([]cycle(nil), cs...)
		sort.Slice(s, func(i, j int) bool { return s[i].s < s[j].s })
		k := int(math.Ceil(keep * float64(len(s))))
		for i, c := range s {
			all += c.s
			if i < k {
				kept += c.s
				values += float64(c.values)
			}
		}
	}
	return float64(n) * ratio(values, kept), ratio(all-kept, all)
}
