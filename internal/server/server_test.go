package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"avr"
	"avr/internal/workloads"
)

// testServer wires a Server into httptest. The returned Server is the
// same instance behind the test listener, so white-box tests can reach
// the admission internals.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func f32Payload(t testing.TB, dist string, n int, seed uint64) ([]float32, []byte) {
	t.Helper()
	vals, err := workloads.GenFloat32(dist, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return vals, b
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestEncodeDecodeRoundTripMatchesDirectCodec(t *testing.T) {
	_, ts := testServer(t, Config{})
	vals, payload := f32Payload(t, "heat", 4096, 1)

	resp, enc := post(t, ts.URL+"/v1/encode", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encode status %d: %s", resp.StatusCode, enc)
	}
	c := avr.NewCodec(0)
	wantEnc, err := c.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, wantEnc) {
		t.Fatalf("server encode differs from direct codec (%d vs %d bytes)", len(enc), len(wantEnc))
	}
	if got := resp.Header.Get("X-AVR-Values"); got != "4096" {
		t.Errorf("X-AVR-Values = %q", got)
	}

	resp, dec := post(t, ts.URL+"/v1/decode", enc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode status %d: %s", resp.StatusCode, dec)
	}
	wantVals, err := c.Decode(wantEnc)
	if err != nil {
		t.Fatal(err)
	}
	wantDec := make([]byte, 4*len(wantVals))
	for i, v := range wantVals {
		binary.LittleEndian.PutUint32(wantDec[4*i:], math.Float32bits(v))
	}
	if !bytes.Equal(dec, wantDec) {
		t.Fatal("server decode differs from direct codec")
	}
}

func TestEncodeDecode64RoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	vals, err := workloads.GenFloat64("wave", 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
	}
	resp, enc := post(t, ts.URL+"/v1/encode?width=64", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("encode status %d: %s", resp.StatusCode, enc)
	}
	wantEnc, err := avr.NewCodec(0).Encode64(vals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, wantEnc) {
		t.Fatal("server encode64 differs from direct codec")
	}
	resp, dec := post(t, ts.URL+"/v1/decode", enc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode status %d", resp.StatusCode)
	}
	if len(dec) != 8*len(vals) {
		t.Fatalf("decoded %d bytes, want %d", len(dec), 8*len(vals))
	}
}

func TestPerRequestThreshold(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Noisy-ish signal so the threshold matters.
	_, payload := f32Payload(t, "mixed", 4096, 3)
	_, loose := post(t, ts.URL+"/v1/encode?t1=0.125", payload)
	_, tight := post(t, ts.URL+"/v1/encode?t1=0.00390625", payload)
	if len(loose) >= len(tight) {
		t.Errorf("loose t1 stream (%d B) not smaller than tight (%d B)", len(loose), len(tight))
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	_, payload := f32Payload(t, "heat", 256, 1)
	cases := []struct {
		name, url string
		body      []byte
		want      int
	}{
		{"bad t1", ts.URL + "/v1/encode?t1=2", payload, http.StatusBadRequest},
		{"bad t1 syntax", ts.URL + "/v1/encode?t1=abc", payload, http.StatusBadRequest},
		{"bad width", ts.URL + "/v1/encode?width=16", payload, http.StatusBadRequest},
		{"misaligned body", ts.URL + "/v1/encode", payload[:5], http.StatusBadRequest},
		{"decode garbage", ts.URL + "/v1/decode", []byte("not a stream"), http.StatusBadRequest},
		{"decode truncated", ts.URL + "/v1/decode", []byte("AVR1\xff\xff\xff\xff"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := post(t, tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	// Method enforcement comes from the Go 1.22 mux patterns.
	resp, err := http.Get(ts.URL + "/v1/encode")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/encode: status %d want 405", resp.StatusCode)
	}
}

func TestHealthzReadyzAndDrain(t *testing.T) {
	s := New(Config{TierConfig: TierConfig{Workers: 1, QueueTimeout: 10 * time.Second}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	get := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return true
	})
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz %d", c)
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("readyz %d", c)
	}

	// Park one request in the admission queue, then drain: readiness
	// must flip, the in-flight request must complete, and Shutdown must
	// return only after it has.
	_, payload := f32Payload(t, "heat", 256, 1)
	s.gate.Acquire(context.Background())
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/encode", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.gate.Queued() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return !s.Ready() })

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	s.gate.Release() // free the worker: the parked request now runs
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestStatsEndpoint: avrd serves no JSON mirror of its process-wide
// series — GET /v1/stats is 404 — and /metrics counts what it served.
func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: %d, want 404", resp.StatusCode)
	}

	_, before := metricFamilies(t, ts.URL)
	_, payload := f32Payload(t, "heat", 1024, 1)
	post(t, ts.URL+"/v1/encode", payload)
	resp, body := post(t, ts.URL+"/v1/decode", []byte("junk"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk decode: %d (%s)", resp.StatusCode, body)
	}
	_, after := metricFamilies(t, ts.URL)

	// The series are process-global; assert floors on the deltas.
	for _, name := range []string{
		"avr_server_requests", "avr_server_encodes", "avr_server_errors",
		"avr_server_latency_count", "avr_server_ratio_count",
	} {
		if d := after[name] - before[name]; d < 1 {
			t.Errorf("%s moved by %g over an encode and a junk decode", name, d)
		}
	}
}

// TestConcurrentRoundTripsRaceClean hammers one server from many
// goroutines so `go test -race` exercises codecs crossing goroutines
// through the pool, admission accounting, and the metrics path. Every
// response is still checked against the direct codec.
func TestConcurrentRoundTripsRaceClean(t *testing.T) {
	_, ts := testServer(t, Config{TierConfig: TierConfig{Workers: 2, QueueDepth: 64, QueueTimeout: 10 * time.Second}})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals, payload := f32Payload(t, "heat", 1024, uint64(g)+1)
			want, err := avr.NewCodec(0).Encode(vals)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10; i++ {
				resp, err := http.Post(ts.URL+"/v1/encode", "application/octet-stream", bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				enc, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
					return
				}
				if !bytes.Equal(enc, want) {
					t.Errorf("goroutine %d: encode differs from direct codec", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
