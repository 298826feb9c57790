package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// batchF32 serializes values for a batch item payload.
func batchF32(vals ...float32) []byte {
	b := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// TestBatchMputMgetRoundTrip: many keys in one round-trip, per-key
// results in request order, values back within the relative bound.
func TestBatchMputMgetRoundTrip(t *testing.T) {
	st, ts := storeServer(t, Config{})
	const keys, vn = 12, 40

	var preq BatchPutRequest
	want := make(map[string][]float32, keys)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("mk-%d", k)
		vals := make([]float32, vn)
		for i := range vals {
			vals[i] = float32(k+1) * (1 + 0.01*float32(i))
		}
		want[key] = vals
		preq.Items = append(preq.Items, BatchPutItem{Key: key, Data: batchF32(vals...)})
	}
	pb, _ := json.Marshal(preq)
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/store/mput", pb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mput: %d %s", resp.StatusCode, body)
	}
	var pres BatchPutResult
	if err := json.Unmarshal(body, &pres); err != nil {
		t.Fatal(err)
	}
	if len(pres.Results) != keys {
		t.Fatalf("mput returned %d results, want %d", len(pres.Results), keys)
	}
	for i, pr := range pres.Results {
		if pr.Key != fmt.Sprintf("mk-%d", i) {
			t.Fatalf("result %d is %q: request order not preserved", i, pr.Key)
		}
		if !pr.OK || pr.Values != vn {
			t.Fatalf("mput %s: %+v", pr.Key, pr)
		}
	}

	var greq BatchGetRequest
	for k := 0; k < keys; k++ {
		greq.Keys = append(greq.Keys, fmt.Sprintf("mk-%d", k))
	}
	gb, _ := json.Marshal(greq)
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/store/mget", gb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mget: %d %s", resp.StatusCode, body)
	}
	var gres BatchGetResult
	if err := json.Unmarshal(body, &gres); err != nil {
		t.Fatal(err)
	}
	t1 := st.T1()
	for _, gr := range gres.Results {
		if !gr.OK || !gr.Complete || gr.Width != 32 {
			t.Fatalf("mget %s: %+v", gr.Key, gr)
		}
		vals := want[gr.Key]
		if len(gr.Data) != 4*len(vals) {
			t.Fatalf("mget %s: %d bytes, want %d", gr.Key, len(gr.Data), 4*len(vals))
		}
		for i, w := range vals {
			g := math.Float32frombits(binary.LittleEndian.Uint32(gr.Data[4*i:]))
			if d := math.Abs(float64(g) - float64(w)); d > t1*math.Abs(float64(w))*(1+1e-9) {
				t.Fatalf("mget %s value %d: |%g-%g| out of bound", gr.Key, i, g, w)
			}
		}
	}
}

// TestBatchPartialFailure: bad items fail in place without failing the
// batch or the neighboring keys.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := storeServer(t, Config{})
	preq := BatchPutRequest{Items: []BatchPutItem{
		{Key: "good-1", Data: batchF32(1, 2, 3)},
		{Key: "bad-width", Width: 16, Data: batchF32(1)},
		{Key: "bad-data", Data: []byte{0xff}},
		{Key: "good-2", Width: 64, Data: []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
	}}
	pb, _ := json.Marshal(preq)
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/store/mput", pb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mput: %d %s", resp.StatusCode, body)
	}
	var pres BatchPutResult
	if err := json.Unmarshal(body, &pres); err != nil {
		t.Fatal(err)
	}
	wantOK := []bool{true, false, false, true}
	for i, pr := range pres.Results {
		if pr.OK != wantOK[i] {
			t.Fatalf("item %d (%s): ok=%v err=%q, want ok=%v", i, pr.Key, pr.OK, pr.Error, wantOK[i])
		}
		if !pr.OK && pr.Error == "" {
			t.Fatalf("item %d (%s): failed without an error message", i, pr.Key)
		}
	}

	// mget mixes hits and misses the same way.
	gb, _ := json.Marshal(BatchGetRequest{Keys: []string{"good-1", "nope", "good-2"}})
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/store/mget", gb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mget: %d %s", resp.StatusCode, body)
	}
	var gres BatchGetResult
	if err := json.Unmarshal(body, &gres); err != nil {
		t.Fatal(err)
	}
	if !gres.Results[0].OK || gres.Results[0].Width != 32 {
		t.Fatalf("good-1: %+v", gres.Results[0])
	}
	if gres.Results[1].OK || !gres.Results[1].NotFound {
		t.Fatalf("nope: %+v, want not_found", gres.Results[1])
	}
	if !gres.Results[2].OK || gres.Results[2].Width != 64 {
		t.Fatalf("good-2: %+v", gres.Results[2])
	}
}

// TestBatchKeysEndpoint: GET /v1/store/key lists the live key set.
func TestBatchKeysEndpoint(t *testing.T) {
	_, ts := storeServer(t, Config{})
	for _, k := range []string{"b", "a", "c"} {
		resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key="+k, batchF32(1, 2))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("put %s: %d %s", k, resp.StatusCode, body)
		}
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/v1/store/key", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keys: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-AVR-Keys"); got != "3" {
		t.Fatalf("X-AVR-Keys %q, want 3", got)
	}
	var kl struct {
		Keys []string `json:"keys"`
	}
	if err := json.Unmarshal(body, &kl); err != nil {
		t.Fatal(err)
	}
	if len(kl.Keys) != 3 || kl.Keys[0] != "a" || kl.Keys[1] != "b" || kl.Keys[2] != "c" {
		t.Fatalf("keys %v, want sorted [a b c]", kl.Keys)
	}
}

// TestBatchRejectsEmpty: empty batches are client errors, not no-ops.
func TestBatchRejectsEmpty(t *testing.T) {
	_, ts := storeServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/store/mput", `{"items":[]}`},
		{"/v1/store/mput", `not json`},
		{"/v1/store/mget", `{"keys":[]}`},
		{"/v1/store/mget", `{`},
	} {
		resp, _ := doReq(t, http.MethodPost, ts.URL+c.path, []byte(c.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with %q: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

// TestReadyzReflectsStoreHealth is the regression test for the drain
// gap: /readyz said ready after the store had been closed underneath
// the server, so load balancers kept routing writes into ErrClosed.
func TestReadyzReflectsStoreHealth(t *testing.T) {
	st, ts := storeServer(t, Config{})

	resp, body := doReq(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a live store: %d %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("ready")) {
		t.Fatalf("readyz body %q", body)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body = doReq(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a closed store: %d %s, want 503", resp.StatusCode, body)
	}
}

// batch8 frames an mput of 8 keys x 64 KiB of heat-map values, as a
// client does, and the matching mget.
func batch8(tb testing.TB) (mput, mget []byte, rawBytes int64) {
	mput, mget = []byte(PutRequestOpen), []byte(`{"keys":[`)
	for k := 0; k < 8; k++ {
		if k > 0 {
			mput, mget = append(mput, ','), append(mget, ',')
		}
		_, raw := f32Payload(tb, "heat", 16384, uint64(k+1))
		rawBytes += int64(len(raw))
		mput = append(mput, fmt.Sprintf(`{"key":"bench-%04d","data":"`, k)...)
		mput = base64.StdEncoding.AppendEncode(mput, raw)
		mput = append(mput, `"}`...)
		mget = append(mget, fmt.Sprintf(`"bench-%04d"`, k)...)
	}
	return append(mput, BatchClose...), append(mget, BatchClose...), rawBytes
}

// benchDo times b.N requests over the loopback listener; MB/s is raw
// value bytes moved, and the core count the tiers shared with the client
// rides along.
func benchDo(b *testing.B, method, url string, body []byte, rawBytes int64) {
	b.SetBytes(rawBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n < 64 {
			b.Fatalf("status %d, %d bytes, %v", resp.StatusCode, n, err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkServerMput8 / Mget8 drive avrd's batch endpoints end to end
// over a real loopback listener.
func BenchmarkServerMput8(b *testing.B) {
	_, ts := storeServer(b, Config{})
	mput, _, raw := batch8(b)
	benchDo(b, http.MethodPost, ts.URL+"/v1/store/mput", mput, raw)
}

func BenchmarkServerMget8(b *testing.B) {
	_, ts := storeServer(b, Config{})
	mput, mget, raw := batch8(b)
	if resp, body := doReq(b, http.MethodPost, ts.URL+"/v1/store/mput", mput); resp.StatusCode != http.StatusOK {
		b.Fatalf("seeding: %d %s", resp.StatusCode, body)
	}
	benchDo(b, http.MethodPost, ts.URL+"/v1/store/mget", mget, raw)
}

// BenchmarkServerPut / Get are their single-key twins: one 64 KiB
// heat-map key per request, the get from disk (storeServer runs no read
// cache). scripts/bench.sh caps the get's allocs/op where it landed, so
// a per-request copy of the vector cannot come back unnoticed.
func BenchmarkServerPut(b *testing.B) {
	_, ts := storeServer(b, Config{})
	_, raw := f32Payload(b, "heat", 16384, 1)
	benchDo(b, http.MethodPut, ts.URL+"/v1/store/put?key=bench", raw, int64(len(raw)))
}

func BenchmarkServerGet(b *testing.B) {
	_, ts := storeServer(b, Config{})
	_, raw := f32Payload(b, "heat", 16384, 1)
	if resp, body := doReq(b, http.MethodPut, ts.URL+"/v1/store/put?key=bench", raw); resp.StatusCode != http.StatusOK {
		b.Fatalf("seeding: %d %s", resp.StatusCode, body)
	}
	benchDo(b, http.MethodGet, ts.URL+"/v1/store/get?key=bench", nil, int64(len(raw)))
}

// BenchmarkLoopbackFloorGet is BenchmarkServerGet with nothing of avrd
// behind the listener: a bare handler answering every request with the
// same preallocated 64 KiB body and its Content-Length, through the same
// client loop. It is the floor net/http and the loopback put under a
// served get on this machine; scripts/bench.sh prints ServerGet minus it
// from the same run as avrd's own share of a GET.
func BenchmarkLoopbackFloorGet(b *testing.B) {
	body := make([]byte, 64<<10)
	length := strconv.Itoa(len(body))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", length)
		w.Write(body)
	}))
	b.Cleanup(ts.Close)
	benchDo(b, http.MethodGet, ts.URL+"/v1/store/get?key=bench", nil, int64(len(body)))
}
