package server

import (
	"encoding/json"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"avr/internal/obs"
	"avr/internal/trace"
)

// TestStatsShape pins the /v1/stats JSON document: every key the
// dashboard (cmd/avrtop) and EXPERIMENTS.md workflows consume must be
// present, including the per-stage breakdown with all eight stage keys.
func TestStatsShape(t *testing.T) {
	_, ts := testServer(t, Config{})
	_, payload := f32Payload(t, "heat", 1024, 7)
	post(t, ts.URL+"/v1/encode", payload)

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"uptime_seconds", "ready",
		"requests", "encodes", "decodes", "errors", "shed", "in_flight",
		"bytes_in", "bytes_out",
		"store_puts", "store_gets", "store_deletes",
		"store_put_bytes", "store_get_bytes", "store_partial_206",
		"store_queries", "query_bytes_touched", "query_bytes_total",
		"cache_hits", "cache_misses", "cache_evictions",
		"cache_resident_bytes", "cache_lines",
		"prefetch_issued", "prefetch_useful",
		"latency", "ratio", "stages",
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	sort.Strings(got)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	if strings.Join(got, ",") != strings.Join(sorted, ",") {
		t.Fatalf("stats keys changed:\n got %v\nwant %v", got, sorted)
	}

	var stages map[string]StageStats
	if err := json.Unmarshal(doc["stages"], &stages); err != nil {
		t.Fatal(err)
	}
	if len(stages) != trace.NumStages {
		t.Fatalf("stages has %d keys, want %d: %v", len(stages), trace.NumStages, stages)
	}
	for _, name := range []string{
		"queue", "pool", "encode", "decode",
		"segread", "segwrite", "lockwait", "query",
	} {
		if _, ok := stages[name]; !ok {
			t.Errorf("stages missing %q", name)
		}
	}
	// The encode we just made must be visible in the stage digests
	// (counters are process-global, so assert floors).
	if st := stages["encode"]; st.Count < 1 {
		t.Error("encode stage digest empty after an encode request")
	} else if st.P99Us < st.P50Us {
		t.Errorf("encode stage p99 %g below p50 %g", st.P99Us, st.P50Us)
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
