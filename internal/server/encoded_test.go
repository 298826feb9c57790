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
	req.Header.Set("Content-Type", EncodedPutType)
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
	enc := store.NewEncoder(st.T1(), st.Stats().RatioFloor)
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

	other, err := store.NewEncoder(st.T1()*2, 1.2).AppendPut(nil, vec.Of32(vals))
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
	container, err := store.NewEncoder(st.T1(), st.Stats().RatioFloor).AppendPut(nil, vec.Of32(vals))
	if err != nil {
		t.Fatal(err)
	}
	other, err := store.NewEncoder(st.T1()/2, 1.2).AppendPut(nil, vec.Of32(vals))
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
