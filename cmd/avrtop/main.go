// Command avrtop is a live terminal dashboard for avrd instances: it
// scrapes each node's /metrics once per interval and redraws a compact
// fleet view — request and shed rates, error rate, in-flight depth,
// wire throughput, achieved compression ratio, the compressed-domain
// traffic-touched fraction, and an ASCII bar chart of per-stage p99
// latency (the tracer's histograms, so the bars show where requests
// actually spend their time).
//
// Usage:
//
//	avrtop -addr localhost:8080                 # redraw every second
//	avrtop -addr-file /tmp/avrd.addr -interval 2s
//	avrtop -addr localhost:8080 -once           # one frame, no clearing
//	avrtop -addr localhost:8080 -frames 10      # ten frames, then exit
//	avrtop -addr node0:8080,node1:8080,node2:8080   # a sharded cluster
//
// With a comma-separated -addr list, each node gets its own panel under
// a fleet summary line (nodes up, summed request rate and wire
// throughput). A node that stops answering shows as DOWN and keeps the
// rest of the dashboard alive — exactly the situation a sharded cluster
// dashboard is for.
//
// Rates are computed from counter deltas between scrapes, so the first
// frame shows totals only; quantiles are read off the histogram
// families' buckets the way Prometheus' histogram_quantile reads them.
// Exit with ctrl-C (or -frames/-once).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"avr/internal/cliutil"
	"avr/internal/obs"
	"avr/internal/trace"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "avrd address (host:port), or a comma-separated list for a cluster")
	addrFile := flag.String("addr-file", "", "read the avrd address from this file (written by avrd -addr-file)")
	interval := flag.Duration("interval", time.Second, "poll/redraw interval")
	frames := flag.Int("frames", 0, "exit after this many frames (0 = run until interrupted)")
	once := flag.Bool("once", false, "print a single frame without clearing the screen and exit")
	flag.Parse()

	if *addrFile != "" {
		b, err := os.ReadFile(*addrFile)
		if err != nil {
			cliutil.Fatal(err)
		}
		*addr = strings.TrimSpace(string(b))
	}
	addrs := splitAddrs(*addr)
	if len(addrs) == 0 {
		cliutil.Fatal(fmt.Errorf("no addresses in -addr %q", *addr))
	}
	client := &http.Client{Timeout: 10 * time.Second}

	prevs := make([]*sample, len(addrs))
	for n := 0; ; n++ {
		curs, errs, down := pollAll(client, addrs)
		// A fully dark fleet on the first frame is a config error, not
		// an outage worth dashboarding.
		if n == 0 && down == len(addrs) {
			cliutil.Fatal(errs[0])
		}
		frame := renderFleet(addrs, prevs, curs, errs)
		if *once {
			fmt.Print(frame)
			return
		}
		// Home the cursor and clear below: repaint without scrollback spam.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		if *frames > 0 && n+1 >= *frames {
			return
		}
		for i, c := range curs {
			if c != nil {
				prevs[i] = c
			}
		}
		time.Sleep(*interval)
	}
}

// splitAddrs parses the -addr value: one host:port, or a comma-
// separated list for a sharded cluster.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// sample is one scrape of a node's /metrics.
type sample struct {
	at      time.Time
	metrics map[string]float64
}

// pollAll scrapes every node once: one request per node per frame.
func pollAll(client *http.Client, addrs []string) (curs []*sample, errs []error, down int) {
	curs, errs = make([]*sample, len(addrs)), make([]error, len(addrs))
	for i, a := range addrs {
		curs[i], errs[i] = poll(client, "http://"+a)
		if errs[i] != nil {
			down++
		}
	}
	return curs, errs, down
}

func poll(client *http.Client, base string) (*sample, error) {
	s := &sample{at: time.Now()}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	s.metrics = parseMetrics(string(buf))
	return s, nil
}

// parseMetrics reads Prometheus text exposition into a flat name→value
// map. Labelled samples (histogram buckets) keep their full
// name{labels} form as the key; comments and blank lines are skipped.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// histogram rebuilds the histogram family name from a parsed scrape.
// The exposition carries cumulative buckets, their sum and count, but
// no extremes: Min is 0 and Max the highest finite bound, which is what
// Prometheus' histogram_quantile assumes.
func histogram(m map[string]float64, name string) obs.Summary {
	prefix := name + `_bucket{le="`
	var bounds []obs.Bucket // Count cumulative until the pass below
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err == nil && !math.IsInf(le, 1) {
			bounds = append(bounds, obs.Bucket{Le: le, Count: uint64(v)})
		}
	}
	slices.SortFunc(bounds, func(a, b obs.Bucket) int { return cmp.Compare(a.Le, b.Le) })
	s := obs.Summary{Count: uint64(m[name+"_count"]), Sum: m[name+"_sum"], Buckets: bounds}
	var below uint64
	for i := range bounds {
		bounds[i].Count, below = bounds[i].Count-below, bounds[i].Count
	}
	if len(bounds) > 0 {
		s.Max = bounds[len(bounds)-1].Le
	}
	s.Overflow = s.Count - below
	return s
}

// rate returns the per-second delta of the named counter between
// samples, or -1 when no previous sample exists yet.
func rate(prev, cur *sample, name string) float64 {
	if prev == nil {
		return -1
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return -1
	}
	return (cur.metrics[name] - prev.metrics[name]) / dt
}

// mb scales a byte rate to MB/s, preserving the no-sample marker.
func mb(r float64) float64 {
	if r < 0 {
		return r
	}
	return r / 1e6
}

// fmtRate renders a rate, or the total with a marker on the first frame.
func fmtRate(r, total float64, unit string) string {
	if r < 0 {
		return fmt.Sprintf("%d total", int64(total))
	}
	return fmt.Sprintf("%.1f%s", r, unit)
}

// bar renders an ASCII bar of v scaled against max into width cells.
func bar(v, max float64, width int) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// renderFleet formats one dashboard frame for the whole address list.
// A single healthy node renders exactly the classic single-node frame;
// multiple nodes get a fleet summary line (nodes up, summed rates)
// followed by one panel per node, with unreachable nodes marked DOWN
// instead of killing the dashboard. Pure, like renderFrame.
func renderFleet(addrs []string, prevs, curs []*sample, errs []error) string {
	if len(addrs) == 1 && errs[0] == nil {
		return renderFrame(addrs[0], prevs[0], curs[0])
	}
	var b strings.Builder
	up := 0
	var reqRate, inRate, outRate float64
	rated := false
	for i := range addrs {
		if errs[i] != nil {
			continue
		}
		up++
		if r := rate(prevs[i], curs[i], "avr_server_requests"); r >= 0 {
			reqRate += r
			rated = true
		}
		if r := rate(prevs[i], curs[i], "avr_server_bytes_in"); r >= 0 {
			inRate += r
		}
		if r := rate(prevs[i], curs[i], "avr_server_bytes_out"); r >= 0 {
			outRate += r
		}
	}
	fmt.Fprintf(&b, "avrtop fleet — %d/%d nodes up", up, len(addrs))
	if rated {
		fmt.Fprintf(&b, "   Σ req/s %.1f   Σ in %.1f MB/s   Σ out %.1f MB/s",
			reqRate, inRate/1e6, outRate/1e6)
	}
	b.WriteString("\n\n")
	for i, a := range addrs {
		if errs[i] != nil {
			fmt.Fprintf(&b, "avrtop — %s   DOWN (%v)\n\n", a, errs[i])
			continue
		}
		b.WriteString(renderFrame(a, prevs[i], curs[i]))
		b.WriteString("\n")
	}
	return b.String()
}

// renderFrame formats one dashboard frame. Pure: all inputs explicit,
// output a string — so tests can pin the layout without a server.
func renderFrame(addr string, prev, cur *sample) string {
	m := cur.metrics
	var b strings.Builder

	fmt.Fprintf(&b, "avrtop — %s   in-flight %d\n", addr, int64(m["avr_server_in_flight"]))
	fmt.Fprintf(&b, "  req/s %-14s shed/s %-12s err/s %-12s shed total %d\n",
		fmtRate(rate(prev, cur, "avr_server_requests"), m["avr_server_requests"], ""),
		fmtRate(rate(prev, cur, "avr_server_shed"), m["avr_server_shed"], ""),
		fmtRate(rate(prev, cur, "avr_server_errors"), m["avr_server_errors"], ""),
		int64(m["avr_server_shed"]))
	ratio := "-"
	if r := histogram(m, "avr_server_ratio"); r.Count > 0 {
		ratio = fmt.Sprintf("%.2f:1", r.Mean())
	}
	fmt.Fprintf(&b, "  in %-16s out %-15s ratio %s\n",
		fmtRate(mb(rate(prev, cur, "avr_server_bytes_in")), m["avr_server_bytes_in"], " MB/s"),
		fmtRate(mb(rate(prev, cur, "avr_server_bytes_out")), m["avr_server_bytes_out"], " MB/s"),
		ratio)

	puts, gets, queries := m["avr_store_puts"], m["avr_store_gets"], m["avr_store_queries"]
	if puts > 0 || gets > 0 || queries > 0 {
		fmt.Fprintf(&b, "  store: puts %d  gets %d  queries %d  partial-206 %d\n",
			int64(puts), int64(gets), int64(queries), int64(m["avr_server_store_partial"]))
		if touched, total := m["avr_store_query_bytes_touched"], m["avr_store_query_bytes_total"]; total > 0 {
			fmt.Fprintf(&b, "  query traffic: touched %.4f of raw bytes (%d / %d)\n",
				touched/total, int64(touched), int64(total))
		}
	}

	hits, misses, resident := m["avr_cache_hits"], m["avr_cache_misses"], m["avr_cache_resident_bytes"]
	if hits+misses > 0 || resident > 0 {
		line := fmt.Sprintf("  cache: hit %.1f%% (%d/%d)  resident %.1f MB in %d lines  evict %d",
			hits/(hits+misses)*100, int64(hits), int64(hits+misses),
			resident/1e6, int64(m["avr_cache_lines"]), int64(m["avr_cache_evictions"]))
		// Interval hit ratio: the lifetime number hides load shifts.
		hd := rate(prev, cur, "avr_cache_hits")
		md := rate(prev, cur, "avr_cache_misses")
		if hd >= 0 && md >= 0 && hd+md > 0 {
			line += fmt.Sprintf("  now %.1f%%", hd/(hd+md)*100)
		}
		b.WriteString(line + "\n")
		if issued, useful := m["avr_prefetch_issued"], m["avr_prefetch_useful"]; issued > 0 {
			fmt.Fprintf(&b, "  prefetch: issued %d  useful %d (%.1f%% accurate)\n",
				int64(issued), int64(useful), useful/issued*100)
		}
	}

	// Per-stage p99 bars, scaled to the slowest stage.
	var stages [trace.NumStages]obs.Summary
	var maxP99 float64
	for i := range stages {
		stages[i] = histogram(m, "avr_trace_stage_"+trace.Stage(i).String())
		maxP99 = max(maxP99, stages[i].Quantile(0.99))
	}
	fmt.Fprintf(&b, "  stage p99 (µs):\n")
	for i, h := range stages {
		if h.Count == 0 {
			continue
		}
		p99 := h.Quantile(0.99)
		fmt.Fprintf(&b, "    %-9s %10.1f  %-24s  n=%d\n",
			trace.Stage(i), p99, bar(p99, maxP99, 24), h.Count)
	}

	if spans, ok := m["avr_trace_spans"]; ok {
		fmt.Fprintf(&b, "  traces: %d spans, %d exported\n", int64(spans), int64(m["avr_trace_exported"]))
	}
	if compactions, ok := m["avr_store_compactions"]; ok {
		fmt.Fprintf(&b, "  compactions: %d (%.0f MB rewritten)\n",
			int64(compactions), m["avr_store_compacted_bytes"]/1e6)
	}
	lat := histogram(m, "avr_server_latency")
	fmt.Fprintf(&b, "  latency e2e: p50 %.1fµs  p99 %.1fµs  (n=%d)\n",
		lat.Quantile(0.50), lat.Quantile(0.99), lat.Count)
	return b.String()
}
