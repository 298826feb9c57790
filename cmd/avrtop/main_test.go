package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"avr/internal/obs"
	"avr/internal/server"
	"avr/internal/store"
)

func TestParseMetrics(t *testing.T) {
	text := strings.Join([]string{
		"# HELP avr_server_requests requests",
		"# TYPE avr_server_requests counter",
		"avr_server_requests 42",
		"avr_trace_spans 7",
		`avr_server_latency_bucket{le="100"} 3`,
		"avr_server_latency_sum 1234.5",
		"",
		"garbage-without-value",
	}, "\n")
	m := parseMetrics(text)
	if m["avr_server_requests"] != 42 {
		t.Errorf("requests = %g, want 42", m["avr_server_requests"])
	}
	if m["avr_trace_spans"] != 7 {
		t.Errorf("spans = %g, want 7", m["avr_trace_spans"])
	}
	if m[`avr_server_latency_bucket{le="100"}`] != 3 {
		t.Errorf("bucket sample lost: %v", m)
	}
	if m["avr_server_latency_sum"] != 1234.5 {
		t.Errorf("sum = %g", m["avr_server_latency_sum"])
	}
	if _, ok := m["garbage-without-value"]; ok {
		t.Error("unparseable line should be skipped")
	}
}

func TestBar(t *testing.T) {
	if got := bar(100, 100, 10); got != strings.Repeat("#", 10) {
		t.Errorf("full bar = %q", got)
	}
	if got := bar(1, 1000, 10); got != "#" {
		t.Errorf("tiny nonzero value must still show one cell, got %q", got)
	}
	if got := bar(0, 100, 10); got != "" {
		t.Errorf("zero value draws %q", got)
	}
	if got := bar(200, 100, 10); got != strings.Repeat("#", 10) {
		t.Errorf("overscale clamps to width, got %q", got)
	}
	if got := bar(50, 0, 10); got != "" {
		t.Errorf("zero max draws %q", got)
	}
}

// testMetrics is a scrape as parseMetrics returns it: counters,
// gauges, and two histogram families (a stage and the e2e latency).
func testMetrics() map[string]float64 {
	return map[string]float64{
		"avr_server_requests":      100,
		"avr_server_shed":          5,
		"avr_server_bytes_in":      1e6,
		"avr_server_bytes_out":     5e5,
		"avr_server_in_flight":     3,
		"avr_store_puts":           3,
		"avr_store_gets":           2,
		"avr_store_queries":        4,
		"avr_cache_hits":           75,
		"avr_cache_misses":         25,
		"avr_cache_resident_bytes": 2e6,
		"avr_cache_lines":          12,
		"avr_cache_evictions":      1,
		"avr_prefetch_issued":      10,
		"avr_prefetch_useful":      8,
		"avr_trace_spans":          100,
		"avr_trace_exported":       2,

		`avr_trace_stage_queue_bucket{le="10"}`:    90,
		`avr_trace_stage_queue_bucket{le="25"}`:    100,
		`avr_trace_stage_queue_bucket{le="+Inf"}`:  100,
		"avr_trace_stage_queue_count":              100,
		`avr_trace_stage_encode_bucket{le="100"}`:  50,
		`avr_trace_stage_encode_bucket{le="250"}`:  100,
		`avr_trace_stage_encode_bucket{le="+Inf"}`: 100,
		"avr_trace_stage_encode_count":             100,
		`avr_trace_stage_pool_bucket{le="1"}`:      0,
		`avr_trace_stage_pool_bucket{le="+Inf"}`:   0,

		`avr_server_latency_bucket{le="100"}`:  50,
		`avr_server_latency_bucket{le="1000"}`: 90,
		`avr_server_latency_bucket{le="+Inf"}`: 100,
		"avr_server_latency_count":             100,
		"avr_server_latency_sum":               123456,
	}
}

// TestHistogram: the buckets come back per-bucket, in bound order, with
// the +Inf remainder as overflow and Max the highest finite bound, so
// Summary.Quantile reads them as histogram_quantile does.
func TestHistogram(t *testing.T) {
	h := histogram(testMetrics(), "avr_server_latency")
	want := []obs.Bucket{{Le: 100, Count: 50}, {Le: 1000, Count: 40}}
	if h.Count != 100 || h.Sum != 123456 || h.Min != 0 || h.Max != 1000 || h.Overflow != 10 ||
		len(h.Buckets) != 2 || h.Buckets[0] != want[0] || h.Buckets[1] != want[1] {
		t.Fatalf("histogram = %+v", h)
	}
	if p50 := h.Quantile(0.5); p50 != 100 {
		t.Errorf("p50 = %g, want the first bound 100", p50)
	}
	if p75 := h.Quantile(0.75); p75 != 662.5 {
		t.Errorf("p75 = %g, want 662.5 (linear inside (100, 1000])", p75)
	}
	if p99 := h.Quantile(0.99); p99 != 1000 {
		t.Errorf("p99 = %g, want the highest finite bound 1000", p99)
	}
	if empty := histogram(testMetrics(), "avr_absent"); empty.Count != 0 || empty.Quantile(0.99) != 0 {
		t.Errorf("absent family = %+v", empty)
	}
}

func TestRenderFrameFirstAndDelta(t *testing.T) {
	cur := &sample{at: time.Now(), metrics: testMetrics()}
	frame := renderFrame("host:1", nil, cur)
	for _, want := range []string{
		"avrtop — host:1   in-flight 3",
		"100 total", // no previous sample: totals, not rates
		"ratio -",
		"store: puts 3  gets 2  queries 4",
		"cache: hit 75.0% (75/100)  resident 2.0 MB in 12 lines  evict 1",
		"prefetch: issued 10  useful 8 (80.0% accurate)",
		"queue", "encode", "#",
		"traces: 100 spans, 2 exported",
		"latency e2e: p50 100.0µs  p99 1000.0µs  (n=100)",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "pool") {
		t.Errorf("a stage with no observations drew a bar:\n%s", frame)
	}
	// The slowest stage owns the full-width bar.
	if !strings.Contains(frame, strings.Repeat("#", 24)) {
		t.Errorf("no full-width bar for the dominant stage:\n%s", frame)
	}

	prev := &sample{at: cur.at.Add(-2 * time.Second), metrics: map[string]float64{"avr_server_requests": 50}}
	frame = renderFrame("host:1", prev, cur)
	if !strings.Contains(frame, "req/s 25.0") {
		t.Errorf("rate from counter delta missing (want req/s 25.0):\n%s", frame)
	}
}

func TestSplitAddrs(t *testing.T) {
	if got := splitAddrs("a:1"); len(got) != 1 || got[0] != "a:1" {
		t.Errorf("single addr: %v", got)
	}
	got := splitAddrs(" a:1, b:2 ,,c:3 ")
	if len(got) != 3 || got[0] != "a:1" || got[1] != "b:2" || got[2] != "c:3" {
		t.Errorf("list with spaces and empties: %v", got)
	}
	if got := splitAddrs(" , "); got != nil {
		t.Errorf("all-empty list: %v", got)
	}
}

// TestRenderFleet: multi-node frames get a fleet summary, per-node
// panels, DOWN markers for unreachable nodes, and summed rates.
func TestRenderFleet(t *testing.T) {
	addrs := []string{"n0:1", "n1:1", "n2:1"}
	now := time.Now()
	mk := func(req, bin float64) *sample {
		m := testMetrics()
		m["avr_server_requests"], m["avr_server_bytes_in"] = req, bin
		return &sample{at: now, metrics: m}
	}
	mkPrev := func(req, bin float64) *sample {
		s := mk(req, bin)
		s.at = now.Add(-2 * time.Second)
		return s
	}
	curs := []*sample{mk(300, 2e6), nil, mk(100, 4e6)}
	prevs := []*sample{mkPrev(100, 0), nil, mkPrev(0, 0)}
	errs := []error{nil, http.ErrServerClosed, nil}

	frame := renderFleet(addrs, prevs, curs, errs)
	for _, want := range []string{
		"avrtop fleet — 2/3 nodes up",
		"Σ req/s 150.0", // (300-100)/2 + (100-0)/2
		"Σ in 3.0 MB/s", // (2e6 + 4e6) / 2s / 1e6
		"avrtop — n0:1",
		"avrtop — n1:1   DOWN",
		"avrtop — n2:1",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("fleet frame missing %q:\n%s", want, frame)
		}
	}

	// A single healthy node renders the classic frame, no fleet header.
	solo := renderFleet([]string{"n0:1"}, []*sample{nil}, []*sample{mk(10, 0)}, []error{nil})
	if strings.Contains(solo, "fleet") {
		t.Errorf("single-node frame grew a fleet header:\n%s", solo)
	}
	if !strings.Contains(solo, "avrtop — n0:1") {
		t.Errorf("single-node frame broken:\n%s", solo)
	}
}

// TestPollAgainstLiveServer drives a frame end to end against live
// servers over a store with a read cache: every node is asked exactly
// one request per frame, /metrics, and every panel renders from it.
func TestPollAgainstLiveServer(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := server.New(server.Config{Store: st})
	var mu sync.Mutex
	asked := map[string][]string{}
	var addrs []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			asked[r.Host] = append(asked[r.Host], r.URL.Path)
			mu.Unlock()
			s.Handler().ServeHTTP(w, r)
		}))
		defer ts.Close()
		addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
	}

	base := "http://" + addrs[0]
	raw := make([]byte, 4*4096)
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(i%97)/8))
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodPut, "/v1/store/put?key=k"},
		{http.MethodGet, "/v1/store/get?key=k"},
		{http.MethodGet, "/v1/store/get?key=k"},
		{http.MethodGet, "/v1/store/query?key=k"},
		{http.MethodPost, "/v1/encode"},
	} {
		var body io.Reader
		if req.method != http.MethodGet {
			body = bytes.NewReader(raw)
		}
		r, _ := http.NewRequest(req.method, base+req.path, body)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d", req.method, req.path, resp.StatusCode)
		}
	}
	mu.Lock()
	clear(asked)
	mu.Unlock()

	var prevs []*sample
	const frames = 3
	for n := 0; n < frames; n++ {
		curs, errs, down := pollAll(http.DefaultClient, addrs)
		if down != 0 {
			t.Fatalf("frame %d: %d nodes down: %v", n, down, errs)
		}
		if n == 0 {
			prevs = make([]*sample, len(addrs))
		}
		frame := renderFleet(addrs, prevs, curs, errs)
		if n == frames-1 {
			for _, want := range []string{
				"avrtop fleet — 2/2 nodes up", "Σ req/s",
				"in-flight", "req/s", "ratio", "store: puts", "query traffic: touched",
				"cache: hit", "stage p99", "segwrite", "encode", "traces:", "compactions:", "latency e2e",
			} {
				if !strings.Contains(frame, want) {
					t.Errorf("live frame missing %q:\n%s", want, frame)
				}
			}
		}
		prevs = curs
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range addrs {
		if got := asked[a]; len(got) != frames || slices.ContainsFunc(got, func(p string) bool { return p != "/metrics" }) {
			t.Errorf("node %s was asked %v over %d frames, want /metrics once a frame", a, got, frames)
		}
	}
}
