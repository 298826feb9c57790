package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"avr/internal/store"
	"avr/internal/vec"
)

// putEncoded PUTs body as an encoded-put container.
func putEncoded(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContainerType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestStorePutEncoded: a container PUT answers what the raw PUT of the
// same values answers and reads back the same bytes; a malformed one is
// 400, one encoded at another t1 is 409, and neither stores anything.
func TestStorePutEncoded(t *testing.T) {
	st, ts := storeServer(t, Config{})
	vals, payload := f32Payload(t, "heat", 6000, 1)
	enc := store.NewEncoder(st.T1())
	container, err := enc.AppendPut(nil, vec.Of32(vals))
	if err != nil {
		t.Fatal(err)
	}

	resp, rawBody := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?key=raw", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw put: %d %s", resp.StatusCode, rawBody)
	}
	// The width parameter means nothing to a container, which names its own.
	resp, encBody := putEncoded(t, ts.URL+"/v1/store/put?key=enc&width=64", container)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encoded put: %d %s", resp.StatusCode, encBody)
	}
	if resp.Header.Get("X-AVR-Trace") == "" {
		t.Error("encoded put: no X-AVR-Trace")
	}
	if want := strings.Replace(string(rawBody), `"raw"`, `"enc"`, 1); string(encBody) != want {
		t.Fatalf("encoded put answers %s, the raw put of the same values %s", encBody, rawBody)
	}
	_, a := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=raw", nil)
	_, b := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=enc", nil)
	if len(a) != len(payload) || !bytes.Equal(a, b) {
		t.Fatalf("the two keys read back differently (%d and %d bytes)", len(a), len(b))
	}

	other, err := store.NewEncoder(st.T1()*2).AppendPut(nil, vec.Of32(vals))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"raw floats as a container", payload, http.StatusBadRequest},
		{"truncated", container[:len(container)/2], http.StatusBadRequest},
		{"empty", nil, http.StatusBadRequest},
		{"another t1", other, http.StatusConflict},
	} {
		resp, body := putEncoded(t, ts.URL+"/v1/store/put?key=refused", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=refused", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("a refused container stored something: get answers %d", resp.StatusCode)
	}
}

// TestBatchEncodedItems: an mput mixes raw and encoded items; a refused
// container, or a payload that is not base64, is its key's error and its
// neighbours are stored.
func TestBatchEncodedItems(t *testing.T) {
	st, ts := storeServer(t, Config{})
	vals, payload := f32Payload(t, "wave", 5000, 2)
	container, err := store.NewEncoder(st.T1()).AppendPut(nil, vec.Of32(vals))
	if err != nil {
		t.Fatal(err)
	}
	other, err := store.NewEncoder(st.T1()/2).AppendPut(nil, vec.Of32(vals))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(BatchPutRequest{Items: []BatchPutItem{
		{Key: "raw", Data: payload},
		{Key: "enc", Encoded: true, Width: 64, Data: container},
		{Key: "enc-cut", Encoded: true, Data: container[:100]},
		{Key: "enc-t1", Encoded: true, Data: other},
		{Key: "raw-as-enc", Encoded: true, Data: payload},
		{Key: "tail", Data: payload},
	}})
	// One payload's text damaged after framing: valid JSON, not base64.
	body = bytes.Replace(body, []byte(`"key":"tail","data":"`), []byte(`"key":"tail","data":"!`), 1)
	resp, reply := doReq(t, http.MethodPost, ts.URL+"/v1/store/mput", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mput: %d %s", resp.StatusCode, reply)
	}
	var res BatchPutResult
	if err := json.Unmarshal(reply, &res); err != nil {
		t.Fatal(err)
	}
	wantErr := []string{"", "", "malformed encoded put", "another t1", "malformed encoded put", "not valid base64"}
	if len(res.Results) != len(wantErr) {
		t.Fatalf("%d results for %d items", len(res.Results), len(wantErr))
	}
	for i, r := range res.Results {
		if r.OK != (wantErr[i] == "") || !strings.Contains(r.Error, wantErr[i]) {
			t.Errorf("item %d (%s): ok=%v error=%q, want error containing %q", i, r.Key, r.OK, r.Error, wantErr[i])
		}
	}
	if a, b := res.Results[0], res.Results[1]; a.Values != b.Values || a.Blocks != b.Blocks || a.Ratio != b.Ratio {
		t.Errorf("the encoded item reports %+v, the raw item of the same values %+v", b, a)
	}
	if keys := st.Keys(); len(keys) != 2 {
		t.Errorf("stored keys %v, want enc and raw only", keys)
	}
	_, a := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=raw", nil)
	_, b := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key=enc", nil)
	if len(a) != len(payload) || !bytes.Equal(a, b) {
		t.Fatalf("the two keys read back differently (%d and %d bytes)", len(a), len(b))
	}
}

// TestStoreGetEncoded: asked for the container, get answers the key's
// store.GetEncoded bytes as application/x-avr, with the status and the
// X-AVR-Width/Values/Complete of the plain get and no X-AVR-Cache — a
// container is read from disk, cache or no cache. An mget asking for
// containers answers each key's with "encoded":true beside the width and
// completeness of the plain mget's result, and a missing key alike.
func TestStoreGetEncoded(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir(), CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := testServer(t, Config{Store: st})
	_, p32 := f32Payload(t, "heat", 6000, 1)
	_, noise := f32Payload(t, "normal", 5000, 2)
	for key, url := range map[string]string{"k32": "key=k32", "noise": "key=noise", "k64": "key=k64&width=64"} {
		body := p32
		if key == "noise" {
			body = noise
		}
		if resp, out := doReq(t, http.MethodPut, ts.URL+"/v1/store/put?"+url, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("put %s: %d %s", key, resp.StatusCode, out)
		}
	}
	keys := []string{"k32", "noise", "k64", "absent"}
	for _, key := range keys {
		plain, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store/get?key="+key, nil)
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/store/get?key="+key, nil)
		req.Header.Set("Accept", ContainerType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != plain.StatusCode {
			t.Fatalf("%s: encoded get %d, plain get %d", key, resp.StatusCode, plain.StatusCode)
		}
		if key == "absent" {
			continue
		}
		want, _, _, err := st.GetEncoded(nil, key, nil)
		if err != nil || !bytes.Equal(body.Bytes(), want) || resp.Header.Get("Content-Type") != ContainerType {
			t.Fatalf("%s: %s body of %d bytes, want the key's %d-byte container (%v)",
				key, resp.Header.Get("Content-Type"), body.Len(), len(want), err)
		}
		for _, h := range []string{"X-AVR-Width", "X-AVR-Values", "X-AVR-Complete"} {
			if got, w := resp.Header.Get(h), plain.Header.Get(h); got != w || got == "" {
				t.Errorf("%s: %s %q, the plain get says %q", key, h, got, w)
			}
		}
		if src := resp.Header.Get("X-AVR-Cache"); src != "" || plain.Header.Get("X-AVR-Cache") == "" {
			t.Errorf("%s: X-AVR-Cache %q on the container, %q on the plain get; want none and a verdict", key, src, plain.Header.Get("X-AVR-Cache"))
		}
	}

	var plain, enc BatchGetResult
	for _, m := range []struct {
		encoded bool
		out     *BatchGetResult
	}{{false, &plain}, {true, &enc}} {
		req, _ := json.Marshal(BatchGetRequest{Keys: keys, Encoded: m.encoded})
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/store/mget", req)
		if err := json.Unmarshal(body, m.out); resp.StatusCode != http.StatusOK || err != nil || len(m.out.Results) != len(keys) {
			t.Fatalf("mget encoded=%v: %d, %v, %d results", m.encoded, resp.StatusCode, err, len(m.out.Results))
		}
	}
	for i, key := range keys {
		p, e := plain.Results[i], enc.Results[i]
		if e.Key != key || e.OK != p.OK || e.NotFound != p.NotFound || e.Error != p.Error ||
			e.Width != p.Width || e.Complete != p.Complete || e.Encoded != p.OK {
			t.Fatalf("%s: encoded result %+v against plain %+v", key, e, p)
		}
		if !e.OK {
			continue
		}
		want, _, _, _ := st.GetEncoded(nil, key, nil)
		if !bytes.Equal(e.Data, want) {
			t.Fatalf("%s: encoded mget carries %d bytes, not the key's %d-byte container", key, len(e.Data), len(want))
		}
	}
}
