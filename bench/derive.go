package main

import (
	"fmt"
	"math"
	"strings"

	"avr"
)

// spanIndex groups span durations by (rung, name).
type spanIndex struct {
	spans []span
	by    map[string][]int // "rung/name" → indices into spans
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, by: map[string][]int{}}
	for i, s := range spans {
		k := s.Rung + "/" + s.Name
		ix.by[k] = append(ix.by[k], i)
	}
	return ix
}

// each calls f on every span of the rung with one of the names.
func (ix *spanIndex) each(rung string, names []string, f func(s span)) {
	for _, n := range names {
		for _, i := range ix.by[rung+"/"+n] {
			f(ix.spans[i])
		}
	}
}

// p50 is the median duration, in ns, of the rung's spans with one of the
// names; 0 when there are none.
func (ix *spanIndex) p50(rung string, names ...string) float64 {
	var d []float64
	ix.each(rung, names, func(s span) { d = append(d, s.dur()) })
	return median(d)
}

// fastest is the shortest duration, in ns, of the rung's spans with the
// name; 0 when there are none.
func (ix *spanIndex) fastest(rung, name string) float64 {
	best := 0.0
	ix.each(rung, []string{name}, func(s span) {
		if best == 0 || s.dur() < best {
			best = s.dur()
		}
	})
	return best
}

// perValue is the median over spans of duration per value, in ns.
func (ix *spanIndex) perValue(rung string, names ...string) float64 {
	var d []float64
	ix.each(rung, names, func(s span) {
		if s.Values > 0 {
			d = append(d, s.dur()/float64(s.Values))
		}
	})
	return median(d)
}

// opSet returns the op ids of the rung's spans with one of the names.
func (ix *spanIndex) opSet(rung string, names []string) map[int]bool {
	ops := map[int]bool{}
	ix.each(rung, names, func(s span) { ops[s.Op] = true })
	return ops
}

// stageDurs returns the durations, in ns, of the stage the rung's
// responses to the named ops reported; a response that did not report
// the stage contributes nothing.
func (ix *spanIndex) stageDurs(rung, stage string, names []string) []float64 {
	ops := ix.opSet(rung, names)
	var d []float64
	ix.each(rung+stageSuffix, []string{stage}, func(s span) {
		if ops[s.Op] {
			d = append(d, s.dur())
		}
	})
	return d
}

// unstaged returns, per span of the rung with one of the names, its
// duration minus every stage its response reported, in ns.
func (ix *spanIndex) unstaged(rung string, names []string) []float64 {
	staged := map[int]float64{}
	for _, s := range ix.spans {
		if s.Rung == rung+stageSuffix {
			staged[s.Op] += s.dur()
		}
	}
	var rest []float64
	ix.each(rung, names, func(s span) { rest = append(rest, s.dur()-staged[s.Op]) })
	return rest
}

func (ix *spanIndex) count(rung string, names ...string) int {
	n := 0
	ix.each(rung, names, func(span) { n++ })
	return n
}

// row is one line of a latency budget.
type row struct {
	name string
	us   float64
}

// budget differences a ladder of rung medians, top first: each rung's
// self time is its median minus the next rung's, the bottom rung keeps
// its own, and whatever the rows do not explain of the top rung is the
// explicit "unattributed" row. A rung with no spans (median 0) is left
// out, so its time lands in the rung above, not in a negative row.
func budget(rungs []row) []row {
	var have []row
	for _, r := range rungs {
		if r.us > 0 {
			have = append(have, r)
		}
	}
	if len(have) == 0 {
		return nil
	}
	var rows []row
	sum := 0.0
	for i, r := range have {
		self := r.us
		if i+1 < len(have) {
			self -= have[i+1].us
		}
		rows = append(rows, row{r.name, self})
		sum += self
	}
	rest := have[0].us - sum
	if math.Abs(rest) < 1e-9 {
		rest = 0 // the differences telescope; what is left is rounding
	}
	return append(rows, row{"unattributed", rest})
}

// serverStages are the X-AVR-Stage-* stages avrd reports that split the
// avrd rung from inside.
var serverStages = []string{"queue", "encode", "decode", "segread", "segwrite", "lockwait", "query", "cachehit"}

// singleKeyOps are the ops server.unattributed_us is computed over.
var singleKeyOps = append(append(allClasses("put"), allClasses("get")...), queryNames[:]...)

// deriveLadder computes every time-valued per-layer metric of the
// serving layers from spans alone, so a spans file reproduces them.
func deriveLadder(spans []span) map[string]float64 {
	ix := indexSpans(spans)
	m := map[string]float64{}
	us := func(ns float64) float64 { return ns / 1e3 }
	put, get := allClasses("put"), allClasses("get")

	// codec: direct avr.Codec calls.
	m["codec.encode_ns_per_value"] = ix.perValue(rungCodec, "put")
	m["codec.encode_ns_per_value_noise"] = ix.perValue(rungCodec, "put_noise")
	m["codec.encode64_ns_per_value"] = ix.perValue(rungCodec, "put64")
	m["codec.decode_ns_per_value"] = ix.perValue(rungCodec, "get")
	m["codec.decode64_ns_per_value"] = ix.perValue(rungCodec, "get64")
	var encBytes, encValues float64
	ix.each(rungCodec, put, func(s span) {
		encBytes += float64(s.Bytes)
		encValues += float64(s.Values)
	})
	m["codec.encoded_bytes_per_value"] = ratio(encBytes, encValues)

	// store: direct store.* calls; self = store rung − codec rung.
	m["store.put_ns_per_value"] = ix.perValue(rungStore, "put")
	m["store.put_ns_per_value_noise"] = ix.perValue(rungStore, "put_noise")
	m["store.put_self_ns_per_value"] = m["store.put_ns_per_value"] - m["codec.encode_ns_per_value"]
	m["store.get_ns_per_value"] = ix.perValue(rungStore, "get")
	m["store.get64_ns_per_value"] = ix.perValue(rungStore, "get64")
	m["store.get_self_ns_per_value"] = m["store.get_ns_per_value"] - m["codec.decode_ns_per_value"]
	for _, q := range queryNames {
		m["store."+q+"_ns_per_value"] = ix.perValue(rungStore, q)
	}
	m["store.open_s"] = ix.p50(rungStore, "open") / 1e9

	// readcache: direct Store.Get*IntoCached calls.
	m["readcache.hit_ns_per_value"] = ix.perValue(rungCache, "hit")
	m["readcache.hit64_ns_per_value"] = ix.perValue(rungCache, "hit64")
	m["readcache.miss_ns_per_value"] = ix.perValue(rungCache, "miss")

	// server: the avrd HTTP rung; self = avrd rung − store rung.
	m["server.put_us_p50"] = us(ix.p50(rungAvrd, put...))
	m["server.get_us_p50"] = us(ix.p50(rungAvrd, get...))
	m["server.query_us_p50"] = us(ix.p50(rungAvrd, queryNames[:]...))
	m["server.put_self_us"] = m["server.put_us_p50"] - us(ix.p50(rungStore, put...))
	m["server.get_self_us"] = m["server.get_us_p50"] - us(ix.p50(rungStore, get...))
	m["server.query_self_us"] = m["server.query_us_p50"] - us(ix.p50(rungStore, queryNames[:]...))
	m["server.mput_self_us_per_key"] = us(ix.p50(rungAvrd, "mput")-ix.p50(rungStore, "mput")) / batchKeys
	m["server.mget_self_us_per_key"] = us(ix.p50(rungAvrd, "mget")-ix.p50(rungStore, "mget")) / batchKeys
	// Stage headers of single-key responses only: a batch response sums
	// its keys' stages, which would swamp the per-op means.
	for _, st := range serverStages {
		rung := rungAvrd
		if st == "cachehit" {
			rung = rungAvrdHot
		}
		m["server.stage_"+st+"_us"] = us(mean(ix.stageDurs(rung, st, singleKeyOps)))
	}
	// What the client saw of a single-key op on the avrd rung, minus every
	// stage that response reported: HTTP parsing, body read, response
	// write and the loopback hop. Printed, never folded into a stage.
	m["server.unattributed_us"] = us(median(ix.unstaged(rungAvrd, singleKeyOps)))

	// cluster: the router HTTP rung; hop = router rung − avrd rung.
	m["cluster.put_hop_us"] = us(ix.p50(rungRouter, put...) - ix.p50(rungAvrd, put...))
	m["cluster.get_hop_us"] = us(ix.p50(rungRouter, get...) - ix.p50(rungAvrd, get...))
	m["cluster.mput_hop_us_per_key"] = us(ix.p50(rungRouter, "mput")-ix.p50(rungAvrd, "mput")) / batchKeys
	m["cluster.mget_hop_us_per_key"] = us(ix.p50(rungRouter, "mget")-ix.p50(rungAvrd, "mget")) / batchKeys
	m["cluster.stage_route_us"] = us(mean(ix.stageDurs(rungRouter, "route", singleKeyOps)))
	m["cluster.stage_fanout_us"] = us(mean(ix.stageDurs(rungRouter, "fanout", singleKeyOps)))
	return m
}

// clientOps are the op kinds the client.* tails are reported for, with
// the span names each pools.
var clientOps = []struct {
	op    string
	names []string
}{
	{"put", allClasses("put")},
	{"get", allClasses("get")},
	{"query", queryNames[:]},
	{"mput", []string{"mput"}},
	{"mget", []string{"mget"}},
}

// deriveClient computes the closed-loop run's client-observed latency
// percentiles from the client-rung spans. p99 is reported only with at
// least 1000 samples (ten beyond it), p90 with at least 100; an
// unsupported percentile reads 0.
func deriveClient(spans []span) map[string]float64 {
	ix := indexSpans(spans)
	m := map[string]float64{}
	for _, co := range clientOps {
		var ms []float64
		ix.each(rungClient, co.names, func(s span) { ms = append(ms, s.dur()/1e6) })
		m["client."+co.op+"_p50_ms"] = median(ms)
		for _, t := range []struct {
			label string
			q     float64
		}{{"p90", 0.90}, {"p99", 0.99}} {
			name := "client." + co.op + "_" + t.label + "_ms"
			if (co.op == "mput" || co.op == "mget") && t.label == "p99" {
				continue // a batch run has too few batches for a p99
			}
			if supportsTail(len(ms), t.q) {
				m[name] = quantile(ms, t.q)
			} else {
				m[name] = 0
			}
		}
	}
	return m
}

// deriveSim computes the simulator's host-time metrics from the sim-rung
// spans: each cell at its fastest pass, and the compressor micro-loops.
func deriveSim(spans []span) map[string]float64 {
	ix := indexSpans(spans)
	m := map[string]float64{}
	var baseline float64
	for _, b := range avr.Benchmarks() {
		m["sim."+b+"_avr_host_s"] = ix.fastest(rungSim, b+"_avr") / 1e9
		baseline += ix.fastest(rungSim, b+"_baseline") / 1e9
	}
	m["sim.baseline_host_s"] = baseline
	m["sim.compress_ns_per_block"] = ix.perValue(rungSim, "compress")
	m["sim.compress_fast_ns_per_block"] = ix.perValue(rungSim, "compress_fast")
	m["sim.decompress_ns_per_block"] = ix.perValue(rungSim, "decompress")
	return m
}

// stageBudget splits a rung's median by the stages its responses
// reported (mean per op, an op that did not report a stage counting 0),
// with the remainder as the explicit "unattributed" row.
func stageBudget(ix *spanIndex, rung string, names []string, stages []string) []row {
	top := ix.p50(rung, names...) / 1e3
	n := float64(ix.count(rung, names...))
	if n == 0 {
		return nil
	}
	var rows []row
	sum := 0.0
	for _, st := range stages {
		var total float64
		for _, d := range ix.stageDurs(rung, st, names) {
			total += d
		}
		if total == 0 {
			continue
		}
		rows = append(rows, row{st, total / n / 1e3})
		sum += total / n / 1e3
	}
	return append(rows, row{"unattributed", top - sum})
}

// budgetTable renders, for each op of the ladder from topRung down, the
// rung medians differenced into rows that sum to the top rung, then the
// avrd rung split from inside by the stages its responses reported.
func budgetTable(spans []span, topRung string) string {
	ix := indexSpans(spans)
	var b strings.Builder
	ops := []struct {
		label string
		names []string
	}{
		{"put", allClasses("put")},
		{"get", allClasses("get")},
		{"query", queryNames[:]},
		{"mput (8 keys)", []string{"mput"}},
		{"mget (8 keys)", []string{"mget"}},
	}
	printRows := func(rows []row) {
		top := 0.0
		for _, r := range rows {
			top += r.us
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "      %-22s %9.1f us  %5.1f %%\n", r.name, r.us, 100*ratio(r.us, top))
		}
	}
	for _, o := range ops {
		ladder := []row{
			{"cluster (router hop)", ix.p50(rungRouter, o.names...) / 1e3},
			{"server (avrd HTTP)", ix.p50(rungAvrd, o.names...) / 1e3},
			{"store", ix.p50(rungStore, o.names...) / 1e3},
			{"codec", ix.p50(rungCodec, o.names...) / 1e3},
		}
		if topRung == rungAvrd {
			ladder = ladder[1:]
		}
		rows := budget(ladder)
		if rows == nil {
			continue
		}
		// The rows sum to the highest rung that has spans of this op: the
		// router scatters no single-key queries, so theirs is the avrd rung.
		top := 0.0
		for _, r := range rows {
			top += r.us
		}
		fmt.Fprintf(&b, "  %-14s top rung, %s, p50 %9.1f us, %d ops per rung; self time by rung\n",
			o.label, rows[0].name, top, ix.count(rungAvrd, o.names...))
		printRows(rows)
		fmt.Fprintf(&b, "    avrd rung p50 %9.1f us by reported stage\n", ix.p50(rungAvrd, o.names...)/1e3)
		printRows(stageBudget(ix, rungAvrd, o.names, serverStages))
	}
	return b.String()
}
