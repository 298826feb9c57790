package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"avr"
	"avr/internal/store"
	"avr/internal/vec"
	"avr/internal/workloads"
)

// storeServer wires a Server over a fresh on-disk store.
func storeServer(t testing.TB, cfg Config) (*store.Store, *httptest.Server) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	_, ts := testServer(t, cfg)
	return st, ts
}

func doReq(t testing.TB, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestServedBytesAreAppendLE: get, mget and codec decode reply from the
// vector's own memory (vec.Vec.LE) instead of a copy, and every body is
// still exactly the AppendLE rendering of what the store or the codec
// reads back — both widths, a key that is not a whole block, and back-to-
// back keys of different widths through one pooled scratch.
func TestServedBytesAreAppendLE(t *testing.T) {
	st, ts := storeServer(t, Config{})
	keys := map[string]vec.Vec{}
	for i, dist := range []string{"heat", "mixed", "normal"} {
		for _, width := range []int{32, 64} {
			v64, err := workloads.GenFloat64(dist, 5000+i, uint64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			v := vec.Of64(v64)
			if width == 32 {
				v = vec.Vec{Width: 32}
				for _, x := range v64 {
					v.F32 = append(v.F32, float32(x))
				}
			}
			key := fmt.Sprintf("%s-%d", dist, width)
			url := ts.URL + "/v1/store/put?key=" + key + "&width=" + strconv.Itoa(width)
			if resp, body := doReq(t, http.MethodPut, url, v.AppendLE(nil)); resp.StatusCode != http.StatusOK {
				t.Fatalf("put %s: %d %s", key, resp.StatusCode, body)
			}
			keys[key] = v
		}
	}
	var mget BatchGetRequest
	for key := range keys {
		want, _, err := st.GetVec(vec.Vec{}, key, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key="+key, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want.AppendLE(nil)) {
			t.Fatalf("get %s: %d, %d bytes, not the AppendLE bytes of the stored vector", key, resp.StatusCode, len(body))
		}
		mget.Keys = append(mget.Keys, key)
	}
	gb, _ := json.Marshal(mget)
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/store/mget", gb)
	var gres BatchGetResult
	if err := json.Unmarshal(body, &gres); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("mget: %d %v", resp.StatusCode, err)
	}
	for i, r := range gres.Results {
		want, _, _ := st.GetVec(vec.Vec{}, mget.Keys[i], false, nil)
		if !r.OK || !bytes.Equal(r.Data, want.AppendLE(nil)) {
			t.Fatalf("mget %s: not the AppendLE bytes of the stored vector", mget.Keys[i])
		}
	}
	codec := avr.NewCodec(0)
	for key, v := range keys {
		stream, err := v.EncodeTo(codec, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := vec.Vec{Width: v.Width}.DecodeAppend(codec, stream)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/decode", stream)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want.AppendLE(nil)) {
			t.Fatalf("decode of %s: %d, not the AppendLE bytes of the codec's decode", key, resp.StatusCode)
		}
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	st, ts := storeServer(t, Config{})
	vals, payload := f32Payload(t, "heat", 6000, 1)

	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=temps", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	var res store.PutResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Values != len(vals) || res.Blocks != 2 {
		t.Fatalf("put result %+v", res)
	}

	resp, got := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=temps", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-AVR-Complete"); h != "true" {
		t.Fatalf("X-AVR-Complete = %q", h)
	}
	if h := resp.Header.Get("X-AVR-Width"); h != "32" {
		t.Fatalf("X-AVR-Width = %q", h)
	}
	if len(got) != len(payload) {
		t.Fatalf("got %d bytes, want %d", len(got), len(payload))
	}
	t1 := st.T1()
	for i := range vals {
		g := float64(math.Float32frombits(binary.LittleEndian.Uint32(got[4*i:])))
		w := float64(vals[i])
		if math.Abs(g-w) > t1*math.Abs(w)*(1+1e-9) {
			t.Fatalf("value %d: got %g want %g beyond t1", i, g, w)
		}
	}
}

func TestStoreGetErrors(t *testing.T) {
	_, ts := storeServer(t, Config{})
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing key: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/get", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no key param: %d", resp.StatusCode)
	}
	// Odd body length for the declared width.
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=k", []byte{1, 2, 3}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged body: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=k&width=13", make([]byte, 8)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad width: %d", resp.StatusCode)
	}
}

func TestStoreDeleteAndStats(t *testing.T) {
	_, ts := storeServer(t, Config{})
	_, payload := f32Payload(t, "wave", 4096, 2)
	if resp, b := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=gone", payload); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, b)
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/store/key?key=gone", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=gone", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d", resp.StatusCode)
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/store/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats store.Stats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Keys != 0 || stats.Tombstones != 1 || stats.DeadBytes == 0 {
		t.Fatalf("stats after delete: %+v", stats)
	}
}

// TestStoreDeleteAndKeysWaitTheirTurn: a delete is a write-lock tombstone
// append and a listing walks the whole index, so both go through the
// frame like their router twins — behind the gate, and traced. With the
// only worker slot held they shed (and the key stays); with it free they
// answer with a trace id.
func TestStoreDeleteAndKeysWaitTheirTurn(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, ts := testServer(t, Config{Store: st, TierConfig: TierConfig{Workers: 1, QueueTimeout: 30 * time.Millisecond}})
	_, payload := f32Payload(t, "wave", 1024, 2)
	if resp, b := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=held", payload); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, b)
	}
	reqs := []struct {
		method, path string
		ok           int
	}{
		{http.MethodGet, "/v1/store/key", http.StatusOK},
		{http.MethodDelete, "/v1/store/key?key=held", http.StatusNoContent},
	}

	s.gate.Acquire(context.Background())
	for _, r := range reqs {
		if resp, _ := doReq(t, r.method, ts.URL+r.path, nil); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s with the only slot held: %d, want 503", r.method, r.path, resp.StatusCode)
		}
	}
	if keys := st.Keys(); len(keys) != 1 {
		t.Fatalf("keys after a shed delete: %v, want the key still there", keys)
	}
	s.gate.Release()

	for _, r := range reqs {
		resp, b := doReq(t, r.method, ts.URL+r.path, nil)
		if resp.StatusCode != r.ok {
			t.Fatalf("%s %s: %d %s, want %d", r.method, r.path, resp.StatusCode, b, r.ok)
		}
		if id := resp.Header.Get("X-AVR-Trace"); !traceIDRe.MatchString(id) {
			t.Errorf("%s %s: X-AVR-Trace %q, want 16 hex digits", r.method, r.path, id)
		}
	}
}

// TestBodiesDeclareTheirLength: the answers that used to go out chunked
// because their handler never said how long they were — a client sizing
// its read buffer from Content-Length got nothing to size from. (The
// frame conformance table in internal/cluster holds every endpoint of
// both tiers to this; these five are the ones that failed.)
func TestBodiesDeclareTheirLength(t *testing.T) {
	_, ts := storeServer(t, Config{})
	_, payload := f32Payload(t, "heat", 16384, 5)
	_, stream := post(t, ts.URL+"/v1/encode", payload)
	for _, r := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPut, "/v1/store/put?key=k", payload},
		{http.MethodPost, "/v1/encode", payload},
		{http.MethodPost, "/v1/decode", stream},
		{http.MethodGet, "/v1/store/query?key=k&op=downsample", nil},
		{http.MethodGet, "/v1/store/key", nil},
	} {
		resp, body := doReq(t, r.method, ts.URL+r.path, r.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", r.method, r.path, resp.StatusCode, body)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				r.method, r.path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestStoreWidthConflict: a key written as fp32 then fetched after an
// fp64 overwrite must serve the new width; a stale-width expectation is
// the client's problem, but a width mismatch error from the store maps
// to 409.
func TestStoreWidthConflict(t *testing.T) {
	_, ts := storeServer(t, Config{})
	_, payload := f32Payload(t, "heat", 1024, 3)
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=w", payload); resp.StatusCode != http.StatusOK {
		t.Fatal("put32 failed")
	}
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=w", nil)
	if resp.Header.Get("X-AVR-Width") != "32" {
		t.Fatalf("width header %q", resp.Header.Get("X-AVR-Width"))
	}
	if resp, b := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=w&width=64", make([]byte, 8*512)); resp.StatusCode != http.StatusOK {
		t.Fatalf("put64 overwrite: %d %s", resp.StatusCode, b)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=w", nil)
	if resp.Header.Get("X-AVR-Width") != "64" {
		t.Fatalf("width header after overwrite %q", resp.Header.Get("X-AVR-Width"))
	}
}

// TestStoreEndpointsAbsentWithoutStore: a store-less server 404s the
// store routes rather than panicking on a nil store.
func TestStoreEndpointsAbsentWithoutStore(t *testing.T) {
	_, ts := testServer(t, Config{})
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("store route on store-less server: %d", resp.StatusCode)
	}
}

// TestStoreQueryEndpoint drives /v1/store/query end to end: every op
// answers from the compressed domain with an explicit error bound, the
// aggregate matches the exact answer within it, and the response proves
// it touched a fraction of the stored raw bytes.
func TestStoreQueryEndpoint(t *testing.T) {
	_, ts := storeServer(t, Config{})
	vals, payload := f32Payload(t, "wave", 6000, 1)
	if resp, b := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=q", payload); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, b)
	}
	var sum, min, max float64
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		sum += float64(v)
		min = math.Min(min, float64(v))
		max = math.Max(max, float64(v))
	}

	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/store/query?key=q", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-AVR-Complete"); h != "true" {
		t.Fatalf("X-AVR-Complete = %q", h)
	}
	var agg store.AggregateResult
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Count != int64(len(vals)) {
		t.Fatalf("count %d, want %d", agg.Count, len(vals))
	}
	if d := math.Abs(agg.Sum - sum); d > agg.ErrorBound*(1+1e-9)+1e-300 {
		t.Fatalf("|sum %g - exact %g| beyond bound %g", agg.Sum, sum, agg.ErrorBound)
	}
	if agg.Min > min || min > agg.Min+agg.MinErrorBound {
		t.Fatalf("exact min %g outside [%g, +%g]", min, agg.Min, agg.MinErrorBound)
	}
	if agg.BytesTotal != int64(len(payload)) {
		t.Fatalf("bytes_total %d, want %d", agg.BytesTotal, len(payload))
	}
	if agg.BytesTouched <= 0 || agg.BytesTouched >= agg.BytesTotal {
		t.Fatalf("bytes_touched %d of %d: no traffic saving", agg.BytesTouched, agg.BytesTotal)
	}

	mid := (min + max) / 2
	resp, body = doReq(t, http.MethodGet,
		ts.URL+"/v1/store/query?key=q&op=filter&lo="+
			strconv.FormatFloat(mid, 'g', -1, 64)+"&hi="+
			strconv.FormatFloat(max, 'g', -1, 64), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filter: %d %s", resp.StatusCode, body)
	}
	var fr store.FilterResult
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	var exact int64
	for _, v := range vals {
		if mid <= float64(v) && float64(v) <= max {
			exact++
		}
	}
	if fr.MatchesMin > exact || exact > fr.MatchesMax {
		t.Fatalf("exact matches %d outside bracket [%d, %d]", exact, fr.MatchesMin, fr.MatchesMax)
	}

	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/store/query?key=q&op=downsample", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("downsample: %d %s", resp.StatusCode, body)
	}
	var ds store.DownsampleResult
	if err := json.Unmarshal(body, &ds); err != nil {
		t.Fatal(err)
	}
	if want := (len(vals) + 15) / 16; len(ds.Points) != want || len(ds.Bounds) != want {
		t.Fatalf("%d points / %d bounds, want %d", len(ds.Points), len(ds.Bounds), want)
	}

	for _, bad := range []string{
		"/v1/store/query",                           // missing key
		"/v1/store/query?key=q&op=median",           // unknown op
		"/v1/store/query?key=q&op=filter",           // missing lo/hi
		"/v1/store/query?key=q&op=filter&lo=2&hi=1", // inverted range
	} {
		if resp, _ := doReq(t, http.MethodGet, ts.URL+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", bad, resp.StatusCode)
		}
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/query?key=absent", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key: %d, want 404", resp.StatusCode)
	}
}

// TestStoreGetCacheHeader pins the X-AVR-Cache contract: absent when the
// read cache is off, "miss" on a cold read, "hit" once the async fill
// lands — with hit and miss bodies byte-identical.
func TestStoreGetCacheHeader(t *testing.T) {
	// Cache off: no header at all.
	_, ts := storeServer(t, Config{})
	_, payload := f32Payload(t, "heat", 6000, 1)
	if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=k", payload); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=k", nil)
	if h, ok := resp.Header["X-Avr-Cache"]; ok {
		t.Fatalf("cache disabled but X-AVR-Cache = %q", h)
	}

	// Cache on: miss, then (after the background fill) hit.
	st, err := store.Open(store.Config{Dir: t.TempDir(), CacheBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts2 := testServer(t, Config{Store: st})
	if resp, body := doReq(t, http.MethodPut, ts2.URL+"/v1/store/put?key=k", payload); resp.StatusCode != http.StatusOK {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	resp, cold := doReq(t, http.MethodGet, ts2.URL+"/v1/store/get?key=k", nil)
	if h := resp.Header.Get("X-AVR-Cache"); h != "miss" {
		t.Fatalf("cold read X-AVR-Cache = %q, want miss", h)
	}
	deadline := time.Now().Add(5 * time.Second)
	var warm []byte
	for {
		resp, body := doReq(t, http.MethodGet, ts2.URL+"/v1/store/get?key=k", nil)
		if h := resp.Header.Get("X-AVR-Cache"); h == "hit" {
			warm = body
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async fill never produced a cache hit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatal("cache-hit body differs from disk-path body")
	}
}
