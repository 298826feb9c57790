package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"avr/internal/obs"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/workloads"
)

// testCluster is a router fronting n real avrd nodes (full server +
// store stacks over httptest), through a fault transport.
type testCluster struct {
	router *httptest.Server
	ro     *Router
	nodes  []*httptest.Server
	stores []*store.Store
	faults *faultTransport
	t1     float64
}

// newTestCluster boots n avrd nodes and a router over them. The prober
// is disabled unless probeInterval > 0 — most tests drive health
// directly and must not race it. In a test the router reaches node i
// through tc.faults, which passes every request on until the test arms
// it; a benchmark's router reaches the nodes directly.
func newTestCluster(t testing.TB, n int, cfg Config) *testCluster {
	t.Helper()
	return newTestClusterAt(t, make([]store.Config, n), cfg)
}

// newTestClusterAt is newTestCluster with node i's store opened on
// stores[i] (a fresh temporary directory unless its Dir names one): a
// fleet can be misconfigured, run avrd's defaults, or start from segments
// a test wrote.
func newTestClusterAt(t testing.TB, stores []store.Config, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{faults: &faultTransport{hosts: map[string]int{}}}
	topo := Topology{VNodes: 64}
	for i, sc := range stores {
		if sc.Dir == "" {
			sc.Dir = t.TempDir()
		}
		st, err := store.Open(sc)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		tc.stores = append(tc.stores, st)
		if i == 0 {
			tc.t1 = st.T1()
		}
		ts := httptest.NewServer(server.New(server.Config{Store: st, T1: st.T1()}).Handler())
		tc.nodes = append(tc.nodes, ts)
		addr := strings.TrimPrefix(ts.URL, "http://")
		tc.faults.hosts[addr] = i
		topo.Nodes = append(topo.Nodes, Node{Name: fmt.Sprintf("node-%02d", i), Addr: addr})
	}
	// Only a test can arm faults. A benchmark's router keeps its own
	// transport: behind a wrapper, net/http enforces the client's Timeout
	// with a timer per request, and the batch benchmarks would count
	// those allocations against the router.
	if _, ok := t.(*testing.T); ok {
		cfg.transport = tc.faults.wrap
	}
	cfg.Topology = topo
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // off
	}
	ro, err := New(cfg)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	tc.ro = ro
	tc.router = httptest.NewServer(ro.Handler())
	t.Cleanup(func() {
		tc.router.Close()
		ro.Close()
		for _, ts := range tc.nodes {
			ts.Close()
		}
		for _, st := range tc.stores {
			st.Close()
		}
	})
	return tc
}

func f32le(vals ...float32) []byte {
	b := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

func leF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (tc *testCluster) put(t *testing.T, key string, vals []float32) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut,
		tc.router.URL+"/v1/store/put?key="+url.QueryEscape(key), bytes.NewReader(f32le(vals...)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// get reads url whole.
func get(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// checkVals asserts every reconstructed value is within the relative
// t1 bound (the same check avrload's withinBound applies).
func (tc *testCluster) checkVals(t *testing.T, key string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("key %s: got %d values, want %d", key, len(got), len(want))
	}
	for i := range got {
		w := float64(want[i])
		tol := tc.t1*math.Abs(w)*(1+1e-9) + 1e-12
		if d := math.Abs(float64(got[i]) - w); d > tol {
			t.Fatalf("key %s value %d: |%g-%g| = %g out of bound %g",
				key, i, got[i], want[i], d, tol)
		}
	}
}

// testVals builds a deterministic value vector for key index k.
func testVals(k, n int) []float32 {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(k) + float32(i)*0.25
	}
	return vals
}

// TestClusterPutGetQuery drives the single-key path end to end: routed
// replicated puts, read-any gets, per-key and cluster-wide aggregates,
// key listing, delete. One more key, odd, needs query escaping: it must
// be listed, read back, and counted by the cluster-wide aggregate, whose
// per-key sub-queries name it in a downstream URL.
func TestClusterPutGetQuery(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const keys, vn = 24, 64
	const odd = "odd key&+%/é"

	var trueSum float64
	for k := 0; k < keys; k++ {
		vals := testVals(k, vn)
		for _, v := range vals {
			trueSum += float64(v)
		}
		resp := tc.put(t, fmt.Sprintf("key-%d", k), vals)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put key-%d: status %d", k, resp.StatusCode)
		}
		if rep := resp.Header.Get("X-AVR-Replicas"); rep != "2" {
			t.Fatalf("put key-%d: X-AVR-Replicas %q, want 2", k, rep)
		}
		if id := resp.Header.Get("X-AVR-Trace"); len(id) != 16 {
			t.Fatalf("put key-%d: trace id %q", k, id)
		}
	}
	for _, v := range testVals(keys, vn) {
		trueSum += float64(v)
	}
	if resp := tc.put(t, odd, testVals(keys, vn)); resp.StatusCode != http.StatusOK {
		t.Fatalf("put %q: status %d", odd, resp.StatusCode)
	}
	resp, err := http.Get(tc.router.URL + "/v1/store/get?key=" + url.QueryEscape(odd))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %q: status %d: %s", odd, resp.StatusCode, body)
	}
	tc.checkVals(t, odd, leF32(body), testVals(keys, vn))

	// Every key reads back within bound through the router.
	for k := 0; k < keys; k++ {
		resp, err := http.Get(tc.router.URL + fmt.Sprintf("/v1/store/get?key=key-%d", k))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get key-%d: status %d: %s", k, resp.StatusCode, body)
		}
		tc.checkVals(t, fmt.Sprintf("key-%d", k), leF32(body), testVals(k, vn))
	}

	// Replication 2: every key is on exactly two of the three stores.
	for k := 0; k < keys; k++ {
		copies := 0
		for _, st := range tc.stores {
			for _, sk := range st.Keys() {
				if sk == fmt.Sprintf("key-%d", k) {
					copies++
				}
			}
		}
		if copies != 2 {
			t.Fatalf("key-%d stored on %d nodes, want 2", k, copies)
		}
	}

	// Key listing is the deduplicated union.
	resp, err = http.Get(tc.router.URL + "/v1/store/key")
	if err != nil {
		t.Fatalf("keys: %v", err)
	}
	var kl struct {
		Keys []string `json:"keys"`
	}
	json.NewDecoder(resp.Body).Decode(&kl)
	resp.Body.Close()
	if len(kl.Keys) != keys+1 || !slices.Contains(kl.Keys, odd) {
		t.Fatalf("key listing has %d keys, want %d with %q (replicas must dedup): %v",
			len(kl.Keys), keys+1, odd, kl.Keys)
	}

	// Single-key query proxies through.
	resp, err = http.Get(tc.router.URL + "/v1/store/query?key=key-0")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var agg store.AggregateResult
	json.NewDecoder(resp.Body).Decode(&agg)
	resp.Body.Close()
	if agg.Count != vn {
		t.Fatalf("single-key aggregate count %d, want %d", agg.Count, vn)
	}

	// Cluster-wide aggregate: exact counts prove replication did not
	// double-count; the summed error bound must cover the true sum.
	resp, err = http.Get(tc.router.URL + "/v1/store/query")
	if err != nil {
		t.Fatalf("cluster query: %v", err)
	}
	var cagg ClusterAggregateResult
	json.NewDecoder(resp.Body).Decode(&cagg)
	resp.Body.Close()
	if cagg.Keys != keys+1 || cagg.Count != int64((keys+1)*vn) {
		t.Fatalf("cluster aggregate keys=%d count=%d, want keys=%d count=%d (double counting, or a key the sub-query could not name?)",
			cagg.Keys, cagg.Count, keys+1, (keys+1)*vn)
	}
	if !cagg.Complete {
		t.Fatalf("cluster aggregate incomplete with all nodes up: %+v", cagg)
	}
	if d := math.Abs(cagg.Sum - trueSum); d > cagg.ErrorBound+1e-6 {
		t.Fatalf("cluster sum %g vs true %g: error %g exceeds bound %g",
			cagg.Sum, trueSum, d, cagg.ErrorBound)
	}
	if cagg.Min > 0 || cagg.Max < float64(keys-1) {
		t.Fatalf("cluster min/max [%g,%g] did not widen over per-key extrema", cagg.Min, cagg.Max)
	}

	// Missing keys 404 through the whole replica set.
	resp, err = http.Get(tc.router.URL + "/v1/store/get?key=nope")
	if err != nil {
		t.Fatalf("get missing: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing key status %d, want 404", resp.StatusCode)
	}

	// Delete removes both copies.
	req, _ := http.NewRequest(http.MethodDelete, tc.router.URL+"/v1/store/key?key=key-0", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", resp.StatusCode)
	}
	for i, st := range tc.stores {
		for _, sk := range st.Keys() {
			if sk == "key-0" {
				t.Fatalf("key-0 still on node %d after delete", i)
			}
		}
	}
}

// TestClusterBatch drives mput/mget through the router: shard-grouped
// fan-out, request-order results, per-key errors as data.
func TestClusterBatch(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const keys, vn = 32, 48

	var preq server.BatchPutRequest
	for k := 0; k < keys; k++ {
		preq.Items = append(preq.Items, server.BatchPutItem{
			Key:  fmt.Sprintf("bk-%d", k),
			Data: f32le(testVals(k, vn)...),
		})
	}
	// One malformed item: batch still succeeds, that key reports its
	// error in place.
	preq.Items = append(preq.Items, server.BatchPutItem{Key: "bad", Data: []byte{1, 2, 3}})

	pb, _ := json.Marshal(preq)
	resp, err := http.Post(tc.router.URL+"/v1/store/mput", "application/json", bytes.NewReader(pb))
	if err != nil {
		t.Fatalf("mput: %v", err)
	}
	var pres server.BatchPutResult
	json.NewDecoder(resp.Body).Decode(&pres)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mput status %d", resp.StatusCode)
	}
	if len(pres.Results) != keys+1 {
		t.Fatalf("mput returned %d results, want %d", len(pres.Results), keys+1)
	}
	for i, pr := range pres.Results[:keys] {
		if pr.Key != fmt.Sprintf("bk-%d", i) {
			t.Fatalf("mput result %d is %q: order not preserved", i, pr.Key)
		}
		if !pr.OK || pr.Replicas != 2 {
			t.Fatalf("mput %s: ok=%v replicas=%d err=%q, want ok on 2 replicas",
				pr.Key, pr.OK, pr.Replicas, pr.Error)
		}
	}
	if bad := pres.Results[keys]; bad.OK || bad.Error == "" {
		t.Fatalf("malformed item: ok=%v err=%q, want a per-key error", bad.OK, bad.Error)
	}

	var greq server.BatchGetRequest
	for k := 0; k < keys; k++ {
		greq.Keys = append(greq.Keys, fmt.Sprintf("bk-%d", k))
	}
	greq.Keys = append(greq.Keys, "missing-key")
	gb, _ := json.Marshal(greq)
	resp, err = http.Post(tc.router.URL+"/v1/store/mget", "application/json", bytes.NewReader(gb))
	if err != nil {
		t.Fatalf("mget: %v", err)
	}
	var gres server.BatchGetResult
	json.NewDecoder(resp.Body).Decode(&gres)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mget status %d", resp.StatusCode)
	}
	if len(gres.Results) != keys+1 {
		t.Fatalf("mget returned %d results, want %d", len(gres.Results), keys+1)
	}
	for i, gr := range gres.Results[:keys] {
		if !gr.OK || !gr.Complete {
			t.Fatalf("mget %s: ok=%v complete=%v err=%q", gr.Key, gr.OK, gr.Complete, gr.Error)
		}
		tc.checkVals(t, gr.Key, leF32(gr.Data), testVals(i, vn))
	}
	if miss := gres.Results[keys]; miss.OK || !miss.NotFound {
		t.Fatalf("missing key: ok=%v not_found=%v, want a not-found result", miss.OK, miss.NotFound)
	}
}

// TestClusterFailover kills one node and proves reads — single and
// batched — complete from replicas, still within bound.
func TestClusterFailover(t *testing.T) {
	tc := newTestCluster(t, 3, Config{
		legTimeout:   2 * time.Second,
		retryBackoff: 5 * time.Millisecond,
	})
	const keys, vn = 16, 32
	for k := 0; k < keys; k++ {
		if resp := tc.put(t, fmt.Sprintf("fk-%d", k), testVals(k, vn)); resp.StatusCode != http.StatusOK {
			t.Fatalf("put fk-%d: status %d", k, resp.StatusCode)
		}
	}

	// Kill node 0 (its store lives on so data isn't lost to the other
	// replicas — only the server is unreachable).
	tc.nodes[0].Close()
	failoversBefore := obs.RouterFailovers.Value()

	for k := 0; k < keys; k++ {
		resp, err := http.Get(tc.router.URL + fmt.Sprintf("/v1/store/get?key=fk-%d", k))
		if err != nil {
			t.Fatalf("get after kill: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get fk-%d after kill: status %d: %s", k, resp.StatusCode, body)
		}
		tc.checkVals(t, fmt.Sprintf("fk-%d", k), leF32(body), testVals(k, vn))
	}
	if obs.RouterFailovers.Value() == failoversBefore {
		t.Fatalf("no failovers recorded with a node down")
	}

	var greq server.BatchGetRequest
	for k := 0; k < keys; k++ {
		greq.Keys = append(greq.Keys, fmt.Sprintf("fk-%d", k))
	}
	gb, _ := json.Marshal(greq)
	resp, err := http.Post(tc.router.URL+"/v1/store/mget", "application/json", bytes.NewReader(gb))
	if err != nil {
		t.Fatalf("mget after kill: %v", err)
	}
	var gres server.BatchGetResult
	json.NewDecoder(resp.Body).Decode(&gres)
	resp.Body.Close()
	for i, gr := range gres.Results {
		if !gr.OK {
			t.Fatalf("mget %s after kill: err=%q", gr.Key, gr.Error)
		}
		tc.checkVals(t, gr.Key, leF32(gr.Data), testVals(i, vn))
	}

	// Writes degrade to one replica but still succeed.
	resp2 := tc.put(t, "post-kill", testVals(99, vn))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("put after kill: status %d", resp2.StatusCode)
	}
	if rep := resp2.Header.Get("X-AVR-Replicas"); rep != "1" && rep != "2" {
		t.Fatalf("put after kill: X-AVR-Replicas %q", rep)
	}
}

// TestPutPrimaryLegRetries: a put's primary leg retries a 5xx like every
// other leg, so one 503 from the primary still leaves the key on both
// replicas.
func TestPutPrimaryLegRetries(t *testing.T) {
	const key = "retried-key"
	tc := newTestCluster(t, 3, Config{retryBackoff: time.Millisecond})
	p, _ := tc.ro.ring.Owners(key)
	tc.faults.set(1, fault{kind: "reply", nodes: []int{p}, method: http.MethodPut, first: 1, status: http.StatusServiceUnavailable})
	retries := obs.RouterRetries.Value()

	resp := tc.put(t, key, testVals(5, 64))
	if n := len(tc.faults.exchanges(func(ex exchange) bool { return ex.fault == "reply" })); n != 1 {
		t.Fatalf("the primary's put was answered 503 %d times, want once", n)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-AVR-Replicas") != "2" {
		t.Fatalf("put after one primary 503: status %d, X-AVR-Replicas %q, want 200 on 2",
			resp.StatusCode, resp.Header.Get("X-AVR-Replicas"))
	}
	if obs.RouterRetries.Value() == retries {
		t.Fatal("no retry counted")
	}
}

// TestSlowLegTimesOut: a leg slower than legTimeout is given up at its
// deadline — a get's fails over to the other replica, a put's is retried
// — and the answer is whole. The delay is longer than legTimeout and
// shorter than the client's backstop (2×legTimeout), so only the leg's
// own deadline can cut it short.
func TestSlowLegTimesOut(t *testing.T) {
	const legTimeout, key = 300 * time.Millisecond, "slow-key"
	tc := newTestCluster(t, 3, Config{legTimeout: legTimeout, retryBackoff: time.Millisecond})
	tc.put(t, key, testVals(3, 256))
	first, _ := tc.ro.legs(key)
	slow := func(method string) fault {
		return fault{kind: "delay", nodes: []int{first}, method: method, first: 1, wait: legTimeout * 3 / 2}
	}

	tc.faults.set(1, slow(http.MethodGet))
	failovers := obs.RouterFailovers.Value()
	resp, err := http.Get(tc.router.URL + "/v1/store/get?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || obs.RouterFailovers.Value() == failovers {
		t.Fatalf("get over a slow first leg: status %d, failovers %d → %d, want 200 from the other replica",
			resp.StatusCode, failovers, obs.RouterFailovers.Value())
	}
	tc.checkVals(t, key, leF32(body), testVals(3, 256))

	tc.faults.set(1, slow(http.MethodPut))
	retries := obs.RouterRetries.Value()
	if resp := tc.put(t, key, testVals(4, 256)); resp.StatusCode != http.StatusOK || resp.Header.Get("X-AVR-Replicas") != "2" ||
		obs.RouterRetries.Value() == retries {
		t.Fatalf("put over a slow primary leg: status %d, replicas %q, retries %d → %d, want 200 on 2 after a retry",
			resp.StatusCode, resp.Header.Get("X-AVR-Replicas"), retries, obs.RouterRetries.Value())
	}
	got, _, _, err := tc.stores[first].GetTraced(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc.checkVals(t, key, got, testVals(4, 256))
}

// TestMergeRetryAfter table-tests the downstream Retry-After fold: the
// router must surface the fleet's max demand, not its own queue's.
func TestMergeRetryAfter(t *testing.T) {
	h := func(v string) http.Header {
		hd := http.Header{}
		if v != "" {
			hd.Set("Retry-After", v)
		}
		return hd
	}
	cases := []struct {
		name    string
		start   int
		headers []http.Header
		want    int
	}{
		{"absent stays", 0, []http.Header{h("")}, 0},
		{"single value", 0, []http.Header{h("3")}, 3},
		{"max wins", 0, []http.Header{h("3"), h("7"), h("2")}, 7},
		{"smaller keeps running max", 5, []http.Header{h("2")}, 5},
		{"garbage ignored", 4, []http.Header{h("soon"), h("")}, 4},
		{"negative ignored", 2, []http.Header{h("-3")}, 2},
		{"zero is valid but not above", 1, []http.Header{h("0")}, 1},
	}
	for _, c := range cases {
		got := c.start
		for _, hd := range c.headers {
			got = mergeRetryAfter(got, hd)
		}
		if got != c.want {
			t.Errorf("%s: merged %d, want %d", c.name, got, c.want)
		}
	}
}

// shedFleet is a real 2-node cluster holding key "shed-0" — so the
// router has learned the encoding — whose every leg then sheds with its
// node's own Retry-After: 4 on node 0, 9 on node 1.
func shedFleet(t *testing.T) *testCluster {
	t.Helper()
	tc := newTestCluster(t, 2, Config{retryBackoff: time.Millisecond})
	tc.put(t, "shed-0", testVals(0, 8))
	shed := func(node int, secs string) fault {
		return fault{kind: "reply", nodes: []int{node}, status: http.StatusTooManyRequests, header: http.Header{"Retry-After": {secs}}}
	}
	tc.faults.set(1, shed(0, "4"), shed(1, "9"))
	return tc
}

// TestRetryAfterPropagatesFromDownstream: whichever handler answers,
// when every leg it sends sheds with its node's own Retry-After, the
// router's answer is a 429 carrying the fleet's largest, not its own
// queue's. A row for each single-key or fleet-wide handler that ends in
// failAll; mput and mget are TestRouterBatchAllLegsShed.
func TestRetryAfterPropagatesFromDownstream(t *testing.T) {
	tc := shedFleet(t)
	for _, c := range []struct {
		name, method, path string
		body               []byte
	}{
		{"put", http.MethodPut, "/v1/store/put?key=shed-0", f32le(1, 2)},
		{"get", http.MethodGet, "/v1/store/get?key=shed-0", nil},
		{"query", http.MethodGet, "/v1/store/query?key=shed-0", nil},
		{"query_all", http.MethodGet, "/v1/store/query", nil},
		{"delete", http.MethodDelete, "/v1/store/key?key=shed-0", nil},
		{"keys", http.MethodGet, "/v1/store/key", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			req, _ := http.NewRequest(c.method, tc.router.URL+c.path, bytes.NewReader(c.body))
			resp, _ := roundTrip(t, req)
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "9" {
				t.Errorf("status %d, Retry-After %q, want 429 with the fleet's max 9", resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		})
	}
}

// TestProberEjectReadmit flips a node's /readyz and watches the prober
// take it out of rotation and back, with the obs counters moving.
func TestProberEjectReadmit(t *testing.T) {
	ejectsBefore := obs.RouterNodeEjects.Value()
	readmitsBefore := obs.RouterNodeReadmits.Value()
	tc := newTestCluster(t, 1, Config{ProbeInterval: 5 * time.Millisecond, probeTimeout: 200 * time.Millisecond})
	ro := tc.ro

	waitUp := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if ro.Stats().Nodes[0].Up == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("node never became up=%v", want)
	}

	waitUp(true)
	ro.encoding.Store(testEncoding())
	tc.faults.set(1, fault{kind: "reply", path: "/readyz", status: http.StatusServiceUnavailable})
	waitUp(false)
	if obs.RouterNodeEjects.Value() <= ejectsBefore {
		t.Fatalf("eject counter did not move")
	}
	if ro.encoding.Load() == nil {
		t.Fatalf("an eject alone dropped the write encoding")
	}
	tc.faults.set(1)
	waitUp(true)
	if obs.RouterNodeReadmits.Value() <= readmitsBefore {
		t.Fatalf("readmit counter did not move")
	}
	// A node that comes back may run at another t1: the next write asks.
	if ro.encoding.Load() != nil {
		t.Fatalf("the readmit kept the write encoding learned before the node left")
	}
}

// TestTraceForwarding: the router forwards an inbound X-AVR-Trace to
// the downstream leg and reports route/fanout stages on its response.
func TestTraceForwarding(t *testing.T) {
	tc := newTestCluster(t, 1, Config{TierConfig: server.TierConfig{TraceSampleEvery: 1}})
	tc.put(t, "k", testVals(1, 3))
	tc.faults.set(1)

	req, _ := http.NewRequest(http.MethodGet, tc.router.URL+"/v1/store/get?key=k", nil)
	req.Header.Set("X-AVR-Trace", "00000000deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if legs := tc.faults.exchanges(nil); len(legs) != 1 || legs[0].trace != "00000000deadbeef" {
		t.Fatalf("the router sent %+v, want one leg carrying the forwarded trace id", legs)
	}
	// The router's response must attribute time to the fanout stage.
	fanoutKey := textproto.CanonicalMIMEHeaderKey("X-AVR-Stage-Fanout")
	if resp.Header.Get(fanoutKey) == "" {
		t.Fatalf("no %s header on routed response: %v", fanoutKey, resp.Header)
	}
}

// TestRouterReadyzDrain: Shutdown flips readiness before closing.
func TestRouterReadyzDrain(t *testing.T) {
	topo := Topology{VNodes: 16, Nodes: []Node{{Name: "a", Addr: "127.0.0.1:1"}}}
	ro, err := New(Config{Topology: topo, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	ts := httptest.NewServer(ro.Handler())
	defer ts.Close()

	resp, _ := http.Get(ts.URL + "/readyz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	}
	if err := ro.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, _ = http.Get(ts.URL + "/readyz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
}

// TestRouterCacheHitAndInvalidation drives the router-side response
// cache: a cold get is a miss that reaches a shard once and fills the
// cache from the reply it proxied, so the very next read hits with a
// byte-identical body, and a proxied overwrite (put or mput) drops the
// resident line so the next read serves fresh bytes. A hit is traced like
// any answer: its cachehit stage is on the wire — read off a real
// response, since a ResponseRecorder's header map keeps changing after
// the body is written, which is how a hit went out without stage headers
// unnoticed.
func TestRouterCacheHitAndInvalidation(t *testing.T) {
	tc := newTestCluster(t, 3, Config{CacheBytes: 16 << 20})
	tc.faults.set(1)
	const key, vn = "cached-key", 96

	getOnce := func() (string, []byte) {
		t.Helper()
		resp, err := http.Get(tc.router.URL + "/v1/store/get?key=" + key)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get: status %d: %s", resp.StatusCode, body)
		}
		if src := resp.Header.Get("X-AVR-Cache"); src == "hit" {
			if resp.Header.Get("X-AVR-Stage-Cachehit") == "" || resp.Header.Get("X-AVR-Stage-Queue") == "" {
				t.Fatalf("cache %s without its queue and cachehit stages: %v", src, resp.Header)
			}
		}
		return resp.Header.Get("X-AVR-Cache"), body
	}
	// hitNow reads key and fails unless the cache answered.
	hitNow := func() []byte {
		t.Helper()
		src, body := getOnce()
		if src != "hit" {
			t.Fatalf("read after the miss X-AVR-Cache = %q, want hit", src)
		}
		return body
	}

	tc.put(t, key, testVals(1, vn))
	src, cold := getOnce()
	if src != "miss" {
		t.Fatalf("cold read X-AVR-Cache = %q, want miss", src)
	}
	hit := hitNow()
	if n := len(tc.faults.exchanges(func(ex exchange) bool { return ex.path == "/v1/store/get" })); n != 1 {
		t.Fatalf("a miss and a hit took %d shard GETs, want 1", n)
	}
	if !bytes.Equal(hit, cold) {
		t.Fatal("cached body differs from the proxied read")
	}
	tc.checkVals(t, key, leF32(hit), testVals(1, vn))
	if st := tc.ro.Stats(); !st.Cache.Enabled || st.Cache.Lines == 0 {
		t.Fatalf("router stats cache = %+v, want enabled with resident lines", st.Cache)
	}

	// Overwrite through the router: the resident line must be dropped
	// and the next hit must carry the new generation's bytes.
	tc.put(t, key, testVals(7, vn))
	src, fresh := getOnce()
	if src != "miss" {
		t.Fatalf("post-overwrite read X-AVR-Cache = %q, want miss (stale line must be invalidated)", src)
	}
	tc.checkVals(t, key, leF32(fresh), testVals(7, vn))
	tc.checkVals(t, key, leF32(hitNow()), testVals(7, vn))

	// Batched overwrite (mput) invalidates too.
	mreq := server.BatchPutRequest{Items: []server.BatchPutItem{
		{Key: key, Data: f32le(testVals(3, vn)...)}}}
	mb, _ := json.Marshal(mreq)
	resp, err := http.Post(tc.router.URL+"/v1/store/mput", "application/json", bytes.NewReader(mb))
	if err != nil {
		t.Fatalf("mput: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mput: status %d", resp.StatusCode)
	}
	src, fresh = getOnce()
	if src != "miss" {
		t.Fatalf("post-mput read X-AVR-Cache = %q, want miss", src)
	}
	tc.checkVals(t, key, leF32(fresh), testVals(3, vn))

	// Delete drops the line for good: the key must 404, not hit.
	req, _ := http.NewRequest(http.MethodDelete, tc.router.URL+"/v1/store/key?key="+key, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode/100 != 2 {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	gresp, err := http.Get(tc.router.URL + "/v1/store/get?key=" + key)
	if err != nil {
		t.Fatalf("get after delete: %v", err)
	}
	io.Copy(io.Discard, gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", gresp.StatusCode)
	}
}

// TestRouterReadsMatchAvrd: through the router, which reads every key as
// its shard's container and rebuilds the values, a get and an mget answer
// what a direct avrd read of the values answers — the same bodies,
// statuses and X-AVR-Width/Values/Complete — over both widths, a lossless
// key, a key whose line is resident in the shards' caches, a torn tail
// (206, and no "complete" in the batch) and, in the batch, a missing key.
// The one header that no longer passes through is the shard's
// X-AVR-Cache: with the router's own cache off, its answer has none.
func TestRouterReadsMatchAvrd(t *testing.T) {
	seed := t.TempDir()
	st, err := store.Open(store.Config{Dir: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		key, dist string
		width, n  int
	}{
		{"fp32", "heat", 32, 3*store.BlockValues + 100},
		{"fp64", "wave", 64, 2*store.BlockValues + 7},
		{"noise", "normal", 32, 2 * store.BlockValues},
		{"cached", "ramp", 32, store.BlockValues + 1},
		{"torn", "wave", 32, 3 * store.BlockValues}, // last: the crash below tears it
	} {
		v, err := workloads.GenFloat64(k.dist, k.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if k.width == 64 {
			_, err = st.Put64(k.key, v)
		} else {
			v32 := make([]float32, len(v))
			for i, x := range v {
				v32[i] = float32(x)
			}
			_, err = st.Put32(k.key, v32)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash inside torn's last frame, and three shards that recover the
	// same bytes.
	segs, _ := filepath.Glob(filepath.Join(seed, "seg-*"))
	if len(segs) != 1 {
		t.Fatalf("setup: %d segments, want 1", len(segs))
	}
	image, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]store.Config, 3)
	for i := range cfgs {
		cfgs[i] = store.Config{Dir: t.TempDir(), CacheBytes: 64 << 20}
		if err := os.WriteFile(filepath.Join(cfgs[i].Dir, filepath.Base(segs[0])), image[:len(image)-64], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tc := newTestClusterAt(t, cfgs, Config{})

	for _, n := range tc.nodes { // cached's line goes resident on every shard
		get(t, n.URL+"/v1/store/get?key=cached")
	}
	for _, key := range []string{"fp32", "fp64", "noise", "cached", "torn"} {
		direct, want := get(t, tc.nodes[0].URL+"/v1/store/get?key="+key)
		routed, got := get(t, tc.router.URL+"/v1/store/get?key="+key)
		if routed.StatusCode != direct.StatusCode || !bytes.Equal(got, want) {
			t.Fatalf("get %s: the router answers %d with %d bytes, avrd %d with %d", key, routed.StatusCode, len(got), direct.StatusCode, len(want))
		}
		for _, h := range []string{"X-AVR-Width", "X-AVR-Values", "X-AVR-Complete", "Content-Type"} {
			if g, w := routed.Header.Get(h), direct.Header.Get(h); g != w {
				t.Errorf("get %s: %s %q through the router, %q from avrd", key, h, g, w)
			}
		}
		if src := routed.Header.Get("X-AVR-Cache"); src != "" {
			t.Errorf("get %s: X-AVR-Cache %q through a router whose cache is off", key, src)
		}
		if key == "cached" && direct.Header.Get("X-AVR-Cache") != "hit" {
			t.Fatalf("setup: avrd's get of the cached key says X-AVR-Cache %q", direct.Header.Get("X-AVR-Cache"))
		}
		if key == "torn" && (direct.StatusCode != http.StatusPartialContent || direct.Header.Get("X-AVR-Values") != strconv.Itoa(2*store.BlockValues)) {
			t.Fatalf("setup: the torn key reads %d with %s values", direct.StatusCode, direct.Header.Get("X-AVR-Values"))
		}
	}
	mget := mgetBody("fp32", "fp64", "noise", "cached", "torn", "absent")
	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url+"/v1/store/mget", "application/json", bytes.NewReader(mget))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mget at %s: %d %s", url, resp.StatusCode, body)
		}
		return body
	}
	if got, want := post(tc.router.URL), post(tc.nodes[0].URL); !bytes.Equal(got, want) {
		t.Fatalf("mget: the router answers %d bytes, avrd %d: %.200q against %.200q", len(got), len(want), got, want)
	}
}

// TestRouterStatsAreTheRoutersOwn: a router's /v1/stats describes that
// router. A second router over the same fleet, in the same process,
// serves the same document before and after the first one routes puts,
// gets, a batch and a listing — its uptime aside.
func TestRouterStatsAreTheRoutersOwn(t *testing.T) {
	tc := newTestCluster(t, 2, Config{CacheBytes: 1 << 20})
	b, err := New(Config{Topology: tc.ro.cfg.Topology, CacheBytes: 1 << 20, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(b.Handler())
	t.Cleanup(func() { bts.Close(); b.Close() })
	snapshot := func() map[string]any {
		t.Helper()
		resp, body := get(t, bts.URL+"/v1/stats")
		var doc map[string]any
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &doc) != nil {
			t.Fatalf("router b's /v1/stats: %d %s", resp.StatusCode, body)
		}
		delete(doc, "uptime_seconds")
		return doc
	}

	before := snapshot()
	for k := 0; k < 4; k++ {
		key := fmt.Sprint("k", k)
		if resp := tc.put(t, key, testVals(k, 256)); resp.StatusCode != http.StatusOK {
			t.Fatalf("put %s through router a: %d", key, resp.StatusCode)
		}
		for i := 0; i < 2; i++ {
			if resp, _ := get(t, tc.router.URL+"/v1/store/get?key="+key); resp.StatusCode != http.StatusOK {
				t.Fatalf("get %s through router a: %d", key, resp.StatusCode)
			}
		}
	}
	mget, _ := json.Marshal(server.BatchGetRequest{Keys: []string{"k0", "k1", "k2"}})
	if resp, err := http.Post(tc.router.URL+"/v1/store/mget", "application/json", bytes.NewReader(mget)); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("mget through router a: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if resp, _ := get(t, tc.router.URL+"/v1/store/key"); resp.StatusCode != http.StatusOK {
		t.Fatalf("key listing through router a: %d", resp.StatusCode)
	}
	if after := snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("router b's /v1/stats moved with router a's traffic:\n%v\nthen\n%v", before, after)
	}
	if st := tc.ro.Stats(); st.Cache.Lines == 0 || st.Nodes[0].Requests+st.Nodes[1].Requests == 0 {
		t.Errorf("router a's own stats did not see its traffic: %+v", st)
	}
}
