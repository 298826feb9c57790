package server

import (
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"avr/internal/obs"
	"avr/internal/trace"
)

// metricFamilies scrapes GET /metrics into its families' types and the
// values of its unlabelled samples.
func metricFamilies(t *testing.T, url string) (types map[string]string, values map[string]float64) {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, url+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	types, values = map[string]string{}, map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			types[f[2]] = f[3]
		case len(f) == 2 && !strings.HasPrefix(f[0], "#") && !strings.Contains(f[0], "{"):
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			values[f[0]] = v
		}
	}
	return types, values
}

// TestStatsShape pins the exact family set avrd's /metrics carries, each
// family beside the reader it is kept for: cmd/avrtop's panels, bench/
// (which reads the obs counters in process), a smoke script, or a test
// that asserts its value. A new series fails this test until it is
// listed here with its reader; a series whose last reader goes is
// deleted, not left listed.
func TestStatsShape(t *testing.T) {
	_, ts := testServer(t, Config{})
	_, payload := f32Payload(t, "heat", 1024, 7)
	post(t, ts.URL+"/v1/encode", payload)

	types, values := metricFamilies(t, ts.URL)
	want := map[string]string{
		"avr_server_in_flight":          "gauge",     // avrtop
		"avr_server_requests":           "counter",   // avrtop, bench/, TestStatsEndpoint
		"avr_server_shed":               "counter",   // avrtop, bench/
		"avr_server_errors":             "counter",   // avrtop, TestStatsEndpoint, TestFrameConformance
		"avr_server_bytes_in":           "counter",   // avrtop
		"avr_server_bytes_out":          "counter",   // avrtop
		"avr_server_ratio":              "histogram", // avrtop, TestStatsEndpoint
		"avr_server_latency":            "histogram", // avrtop, TestStatsEndpoint
		"avr_server_store_partial":      "counter",   // avrtop
		"avr_server_encodes":            "counter",   // TestStatsEndpoint
		"avr_store_puts":                "counter",   // avrtop, bench/
		"avr_store_gets":                "counter",   // avrtop, bench/
		"avr_store_queries":             "counter",   // avrtop, store_smoke.sh
		"avr_store_query_bytes_touched": "counter",   // avrtop, bench/
		"avr_store_query_bytes_total":   "counter",   // avrtop, bench/
		"avr_store_compactions":         "counter",   // avrtop, bench/
		"avr_store_compacted_bytes":     "counter",   // avrtop, bench/
		"avr_store_encodes":             "counter",   // TestReplicasHoldIdenticalBlocks
		"avr_store_compress_skips":      "counter",   // TestRecompression*, TestPutEncodedOverwritesAndFlags
		"avr_store_recompress_tried":    "counter",   // TestRecompression*
		"avr_store_recompress_skipped":  "counter",   // TestRecompression*
		"avr_store_recompress_won":      "counter",   // TestRecompression*
		"avr_store_torn_tails":          "counter",   // TestIOFaults
		"avr_cache_hits":                "counter",   // avrtop, bench/
		"avr_cache_misses":              "counter",   // avrtop, bench/
		"avr_cache_evictions":           "counter",   // avrtop, bench/
		"avr_cache_resident_bytes":      "gauge",     // avrtop
		"avr_cache_lines":               "gauge",     // avrtop
		"avr_prefetch_issued":           "counter",   // avrtop, bench/
		"avr_prefetch_useful":           "counter",   // avrtop, bench/
		"avr_router_requests":           "counter",   // bench/
		"avr_router_shed":               "counter",   // bench/
		"avr_router_fanouts":            "counter",   // bench/
		"avr_router_failovers":          "counter",   // bench/
		"avr_router_retries":            "counter",   // bench/
		"avr_router_errors":             "counter",   // TestFrameConformance
		"avr_router_node_ejects":        "counter",   // cluster_smoke.sh, TestProberEjectReadmit
		"avr_router_node_readmits":      "counter",   // cluster_smoke.sh, TestProberEjectReadmit
		"avr_trace_spans":               "counter",   // avrtop
		"avr_trace_exported":            "counter",   // avrtop
	}
	// avrtop's stage panel; serve_smoke.sh greps the queue stage.
	for i := 0; i < trace.NumStages; i++ {
		want["avr_trace_stage_"+trace.Stage(i).String()] = "histogram"
	}
	for name, typ := range want {
		if types[name] != typ {
			t.Errorf("/metrics types %s as %q, want %q", name, types[name], typ)
		}
	}
	for name, typ := range types {
		if _, ok := want[name]; !ok {
			t.Errorf("/metrics carries %s (%s), which names no reader here", name, typ)
		}
	}
	// The encode we just made must be visible in its stage's histogram
	// (the series are process-global, so assert floors).
	if n := values["avr_trace_stage_encode_count"]; n < 1 {
		t.Errorf("encode stage histogram counts %g after an encode request", n)
	}
}

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// stageHeaderSum pulls every X-AVR-Stage-* header off a response and
// returns their sum, in nanoseconds.
func stageHeaderSum(t *testing.T, h http.Header) time.Duration {
	t.Helper()
	var sum time.Duration
	for key, vals := range h {
		if !strings.HasPrefix(key, "X-Avr-Stage-") {
			continue
		}
		ns, err := strconv.ParseInt(vals[0], 10, 64)
		if err != nil || ns <= 0 {
			t.Fatalf("bad stage header %s: %q", key, vals[0])
		}
		sum += time.Duration(ns)
	}
	return sum
}

// TestStageSumsWithinLatency pins the tracer's core accounting claim:
// stages are disjoint wall-clock sections, so the per-stage durations a
// response advertises must sum to no more than the end-to-end latency
// the client measured around the whole request.
func TestStageSumsWithinLatency(t *testing.T) {
	st, ts := storeServer(t, Config{})
	_ = st
	_, payload := f32Payload(t, "heat", 4096, 3)

	check := func(op string, resp *http.Response, elapsed time.Duration) {
		t.Helper()
		id := resp.Header.Get(trace.TraceHeader)
		if !traceIDRe.MatchString(id) {
			t.Fatalf("%s: bad %s header %q", op, trace.TraceHeader, id)
		}
		sum := stageHeaderSum(t, resp.Header)
		if sum <= 0 {
			t.Fatalf("%s: response advertises no stage durations", op)
		}
		if sum > elapsed {
			t.Errorf("%s: stage sum %v exceeds end-to-end latency %v", op, sum, elapsed)
		}
	}

	t0 := time.Now()
	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=k", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d (%s)", resp.StatusCode, body)
	}
	check("put", resp, time.Since(t0))

	t0 = time.Now()
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=k", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d (%s)", resp.StatusCode, body)
	}
	check("get", resp, time.Since(t0))

	t0 = time.Now()
	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/store/query?key=k&op=aggregate", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d (%s)", resp.StatusCode, body)
	}
	check("query", resp, time.Since(t0))

	t0 = time.Now()
	resp, out := post(t, ts.URL+"/v1/encode", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encode: %d", resp.StatusCode)
	}
	check("encode", resp, time.Since(t0))

	t0 = time.Now()
	resp, _ = post(t, ts.URL+"/v1/decode", out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: %d", resp.StatusCode)
	}
	check("decode", resp, time.Since(t0))
}

// TestTraceIDOnErrorResponses: even a failed request carries its trace
// id so a client can quote it in a report.
func TestTraceIDOnErrorResponses(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, _ := post(t, ts.URL+"/v1/decode", []byte("junk"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk decode: %d", resp.StatusCode)
	}
	if id := resp.Header.Get(trace.TraceHeader); !traceIDRe.MatchString(id) {
		t.Fatalf("error response %s header %q, want 16 hex digits", trace.TraceHeader, id)
	}
}

// TestMetricsEndpoint scrapes GET /metrics end to end through the
// server mux and holds the exposition to the same strict lint the obs
// unit tests use: Prometheus text format 0.0.4, every avr.* expvar
// present, stage histograms included.
func TestMetricsEndpoint(t *testing.T) {
	st, ts := storeServer(t, Config{})
	_ = st
	_, payload := f32Payload(t, "heat", 2048, 9)
	doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=m", payload)
	post(t, ts.URL+"/v1/encode", payload)

	resp, body := doReq(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	if err := obs.LintExposition(body); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	for _, family := range []string{
		"avr_server_requests",
		"avr_store_puts",
		"avr_server_latency_bucket",
		"avr_trace_stage_queue_bucket",
		"avr_trace_stage_encode_sum",
		"avr_trace_spans",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
}
