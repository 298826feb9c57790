package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"avr"
	"avr/internal/obs"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/workloads"
)

// The request frame's conformance table: every framed endpoint of both
// tiers × every way a request can go through (or be turned away by) the
// frame. A tier is, to the table, "a handler and its gate" — avrd over a
// temp store, the router over newTestCluster — so one set of assertions
// holds both to the same answers: status, X-AVR-Trace on everything,
// every body's length declared, the worker slot and the in-flight gauge
// given back, and the requests / shed / errors counters moving by
// DESIGN.md's rules.

// frameCap is the body cap the tiers under test run with: above the
// 64 KiB key (88 KB as an mput item) the well-formed requests carry.
const frameCap = 256 << 10

// frameLimits is the admission shape a case needs.
type frameLimits struct {
	workers, depth int
	timeout        time.Duration
}

// tier is the frame settings a tier under test runs with.
func (lim frameLimits) tier() server.TierConfig {
	return server.TierConfig{Workers: lim.workers, QueueDepth: lim.depth, QueueTimeout: lim.timeout, MaxBodyBytes: frameCap}
}

var roomy = frameLimits{workers: 2, depth: 8, timeout: 5 * time.Second}

type frameTier struct {
	url  string
	tier *server.Tier
	// counters are the published series the tier's frame keeps. The
	// router's in-flight gauge is unpublished, so it is nil there and
	// idle checks the router's worker slots alone.
	counters server.Counters
	eps      []frameEndpoint
}

type frameEndpoint struct {
	name, method, path string
	key                string // ?key= value; "" when the endpoint takes none
	query              string // further parameters
	body               []byte // well-formed request body; nil when it takes none
	accept             string // Accept header; "" sends none
	ok                 int    // status of the well-formed request
	seed               bool   // key must be put before each well-formed request (delete)
	unadmitted         bool   // framed, but outside admission (the router's fleet stats)
}

func (ep frameEndpoint) url(base string, withKey bool) string {
	u := base + ep.path + "?" + ep.query
	if withKey && ep.key != "" {
		u += "&key=" + ep.key
	}
	return u
}

// frameBodies are the well-formed request bodies: one 16 384-value key
// raw, as an AVR stream, as an mput, and the mget that reads it back —
// as values, and as its container.
func frameBodies(t testing.TB) (raw, stream, mput, mget, mgetEncoded []byte) {
	t.Helper()
	vals, err := workloads.GenFloat32("heat", 16384, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw = f32le(vals...)
	if stream, err = avr.NewCodec(0).Encode(vals); err != nil {
		t.Fatal(err)
	}
	mput, _ = json.Marshal(server.BatchPutRequest{Items: []server.BatchPutItem{{Key: "m", Data: raw}}})
	mget, _ = json.Marshal(server.BatchGetRequest{Keys: []string{"k"}})
	mgetEncoded, _ = json.Marshal(server.BatchGetRequest{Keys: []string{"k"}, Encoded: true})
	return raw, stream, mput, mget, mgetEncoded
}

// storeEndpoints are the store endpoints both tiers serve. A get or an
// mget that asks for containers is avrd's answer to the router's legs;
// the router answers it with values.
func storeEndpoints(raw, mput, mget, mgetEncoded []byte) []frameEndpoint {
	return []frameEndpoint{
		{name: "put", method: http.MethodPut, path: "/v1/store/put", key: "k", body: raw, ok: 200},
		{name: "get", method: http.MethodGet, path: "/v1/store/get", key: "k", ok: 200},
		{name: "get_encoded", method: http.MethodGet, path: "/v1/store/get", key: "k", accept: server.ContainerType, ok: 200},
		{name: "query", method: http.MethodGet, path: "/v1/store/query", key: "k", query: "op=filter&lo=0&hi=1", ok: 200},
		{name: "downsample", method: http.MethodGet, path: "/v1/store/query", key: "k", query: "op=downsample", ok: 200},
		{name: "delete", method: http.MethodDelete, path: "/v1/store/key", key: "victim", ok: 204, seed: true},
		{name: "keys", method: http.MethodGet, path: "/v1/store/key", ok: 200},
		{name: "mput", method: http.MethodPost, path: "/v1/store/mput", body: mput, ok: 200},
		{name: "mget", method: http.MethodPost, path: "/v1/store/mget", body: mget, ok: 200},
		{name: "mget_encoded", method: http.MethodPost, path: "/v1/store/mget", body: mgetEncoded, ok: 200},
	}
}

func newAvrdTier(t testing.TB, lim frameLimits) *frameTier {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Store: st, TierConfig: lim.tier()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); st.Close() })
	raw, stream, mput, mget, mgetEncoded := frameBodies(t)
	ft := &frameTier{url: ts.URL, tier: srv.Tier, counters: server.Counters{
		Requests: obs.ServerRequests, Shed: obs.ServerShed, Errors: obs.ServerErrors, InFlight: obs.ServerInFlight,
	}, eps: append([]frameEndpoint{
		{name: "encode", method: http.MethodPost, path: "/v1/encode", body: raw, ok: 200},
		{name: "decode", method: http.MethodPost, path: "/v1/decode", body: stream, ok: 200},
	}, storeEndpoints(raw, mput, mget, mgetEncoded)...)}
	ft.put(t, "k", raw)
	return ft
}

func newRouterTier(t testing.TB, lim frameLimits) *frameTier {
	t.Helper()
	tc := newTestCluster(t, 2, Config{TierConfig: lim.tier()})
	raw, _, mput, mget, mgetEncoded := frameBodies(t)
	ft := &frameTier{url: tc.router.URL, tier: tc.ro.Tier, counters: server.Counters{
		Requests: obs.RouterRequests, Shed: obs.RouterShed, Errors: obs.RouterErrors,
	}, eps: append(storeEndpoints(raw, mput, mget, mgetEncoded),
		frameEndpoint{name: "query_all", method: http.MethodGet, path: "/v1/store/query", ok: 200},
		frameEndpoint{name: "fleet_stats", method: http.MethodGet, path: "/v1/store/stats", ok: 200, unadmitted: true},
	)}
	ft.put(t, "k", raw)
	return ft
}

func (ft *frameTier) put(t testing.TB, key string, raw []byte) {
	t.Helper()
	resp, body := ft.do(t, http.MethodPut, ft.url+"/v1/store/put?key="+key, bytes.NewReader(raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeding %s: %d %s", key, resp.StatusCode, body)
	}
}

func (ft *frameTier) do(t testing.TB, method, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return roundTrip(t, req)
}

// send makes one of ep's requests, its key in the URL or not.
func (ft *frameTier) send(t testing.TB, ep frameEndpoint, withKey bool, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	return roundTrip(t, ep.request(ft.url, withKey, body))
}

// request is ep's request as a handler receives it; a client sends it
// with RequestURI cleared.
func (ep frameEndpoint) request(base string, withKey bool, body io.Reader) *http.Request {
	req := httptest.NewRequest(ep.method, ep.url(base, withKey), body)
	if ep.accept != "" {
		req.Header.Set("Accept", ep.accept)
	}
	return req
}

func roundTrip(t testing.TB, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	method, url := req.Method, req.URL
	req.RequestURI = ""
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the answer: %v", method, url, err)
	}
	return resp, out
}

// statusOf is ep's well-formed request made off the test goroutine: just
// its status, -1 when it got none.
func statusOf(ep frameEndpoint, base string) int {
	req := ep.request(base, true, bytes.NewReader(ep.body))
	req.RequestURI = ""
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// wellFormed sends ep's well-formed request (putting its key first when
// the endpoint consumes it) and holds the answer to the frame's promises.
func (ft *frameTier) wellFormed(t testing.TB, ep frameEndpoint) {
	t.Helper()
	if ep.seed {
		ft.put(t, ep.key, f32le(1, 2, 3))
	}
	resp, body := ft.send(t, ep, true, bytes.NewReader(ep.body))
	checkFramed(t, resp.StatusCode, ep.ok, resp.Header, body)
	checkLength(t, resp, body)
}

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

// checkFramed: the status, and the trace id every framed answer carries.
func checkFramed(t testing.TB, status, want int, h http.Header, body []byte) {
	t.Helper()
	if status != want {
		t.Fatalf("status %d, want %d (%s)", status, want, bytes.TrimSpace(body[:min(len(body), 200)]))
	}
	if id := h.Get("X-AVR-Trace"); !traceIDRe.MatchString(id) {
		t.Errorf("status %d answer carries X-AVR-Trace %q, want 16 hex digits", status, id)
	}
}

// checkLength: the body's length was declared, not chunked.
func checkLength(t testing.TB, resp *http.Response, body []byte) {
	t.Helper()
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
		t.Errorf("status %d: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
			resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// tally is what the frame counted.
type tally struct{ requests, shed, errors int64 }

// idle waits for the frame to be done with every request so far —
// nothing queued, every worker slot free, the in-flight gauge back at
// zero (the frame gives both back after the answer is out, so the
// client can be ahead of them) — and reads the counters.
func (ft *frameTier) idle(t testing.TB) tally {
	t.Helper()
	c := ft.counters
	deadline := time.Now().Add(5 * time.Second)
	for ft.tier.Gate().Queued() != 0 || !ft.slotsFree() || c.InFlight != nil && c.InFlight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("frame never went idle: %d queued, slots free %v", ft.tier.Gate().Queued(), ft.slotsFree())
		}
		time.Sleep(time.Millisecond)
	}
	return tally{c.Requests.Value(), c.Shed.Value(), c.Errors.Value()}
}

// slotsFree reports whether every worker slot can be taken at once, and
// gives back what it took.
func (ft *frameTier) slotsFree() bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a slot that is not free at once is busy
	n, held := ft.tier.Config().Workers, 0
	for held < n && ft.tier.Gate().Acquire(ctx) == nil {
		held++
	}
	for i := 0; i < held; i++ {
		ft.tier.Gate().Release()
	}
	return held == n
}

// settled checks that the frame is idle again and counted exactly want
// since before.
func (ft *frameTier) settled(t testing.TB, before, want tally) {
	t.Helper()
	now := ft.idle(t)
	got := tally{now.requests - before.requests, now.shed - before.shed, now.errors - before.errors}
	if got != want {
		t.Errorf("counters moved by %+v, want %+v", got, want)
	}
}

// holdSlots takes every worker slot, the way a tier saturated by slow
// requests looks to the next arrival; the returned func gives them back.
func (ft *frameTier) holdSlots(t testing.TB) (release func()) {
	t.Helper()
	n := ft.tier.Config().Workers
	for i := 0; i < n; i++ {
		if err := ft.tier.Gate().Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			ft.tier.Gate().Release()
		}
	}
}

func (ft *frameTier) waitQueued(t testing.TB, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ft.tier.Gate().Queued() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", ft.tier.Gate().Queued(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func behindGate(ep frameEndpoint) bool { return !ep.unadmitted }

// served is what ep's well-formed request adds to the counters: one
// admitted request, none outside admission, two when its key was put
// first.
func served(ep frameEndpoint) tally {
	switch {
	case ep.unadmitted:
		return tally{}
	case ep.seed:
		return tally{requests: 2}
	}
	return tally{requests: 1}
}

// servedWhole: the well-formed request is answered as the frame promises
// and counted as served.
func servedWhole(t *testing.T, ft *frameTier, ep frameEndpoint) {
	before := ft.idle(t)
	ft.wellFormed(t, ep)
	ft.settled(t, before, served(ep))
}

var frameCases = []struct {
	name string
	lim  frameLimits
	// covers picks the endpoints the case has something to say about
	// (nil: all of them).
	covers func(ep frameEndpoint) bool
	// once runs against the tier before its endpoints.
	once func(t *testing.T, ft *frameTier)
	run  func(t *testing.T, ft *frameTier, ep frameEndpoint)
}{
	{name: "ok", lim: roomy, run: servedWhole},

	{name: "missing_key", lim: roomy, covers: func(ep frameEndpoint) bool { return ep.key != "" }, run: func(t *testing.T, ft *frameTier, ep frameEndpoint) {
		before := ft.idle(t)
		resp, body := ft.send(t, ep, false, bytes.NewReader(ep.body))
		checkFramed(t, resp.StatusCode, http.StatusBadRequest, resp.Header, body)
		checkLength(t, resp, body)
		ft.settled(t, before, tally{errors: 1})
	}},

	{name: "body_over_cap", lim: roomy, covers: func(ep frameEndpoint) bool { return ep.body != nil }, run: func(t *testing.T, ft *frameTier, ep frameEndpoint) {
		big := bytes.Repeat([]byte("AAAA"), frameCap) // 4x the cap
		for _, chunked := range []bool{false, true} {
			var body io.Reader = bytes.NewReader(big)
			if chunked {
				body = struct{ io.Reader }{body} // hides the length
			}
			before := ft.idle(t)
			resp, out := ft.send(t, ep, true, body)
			checkFramed(t, resp.StatusCode, http.StatusRequestEntityTooLarge, resp.Header, out)
			checkLength(t, resp, out)
			ft.settled(t, before, tally{errors: 1})
		}
	}},

	// Every slot busy and the queue's one seat taken: the next arrival is
	// shed at once with 429 and a Retry-After, the queued request is
	// served when a slot frees, and the tier is whole afterwards.
	{name: "queue_full", lim: frameLimits{workers: 1, depth: 1, timeout: 5 * time.Second}, covers: behindGate,
		run: func(t *testing.T, ft *frameTier, ep frameEndpoint) {
			if ep.seed {
				ft.put(t, ep.key, f32le(1, 2, 3))
			}
			before := ft.idle(t)
			release := ft.holdSlots(t)
			queued := make(chan int, 1)
			go func() { queued <- statusOf(ep, ft.url) }()
			ft.waitQueued(t, 1)

			resp, body := ft.send(t, ep, true, bytes.NewReader(ep.body))
			checkFramed(t, resp.StatusCode, http.StatusTooManyRequests, resp.Header, body)
			checkLength(t, resp, body)
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}

			release()
			if code := <-queued; code != ep.ok {
				t.Errorf("queued request finished with %d once a slot freed, want %d", code, ep.ok)
			}
			ft.settled(t, before, tally{requests: 1, shed: 1})
			ft.wellFormed(t, ep)
		}},

	{name: "queue_timeout", lim: frameLimits{workers: 1, depth: 4, timeout: 50 * time.Millisecond}, covers: behindGate,
		run: func(t *testing.T, ft *frameTier, ep frameEndpoint) {
			before := ft.idle(t)
			release := ft.holdSlots(t)
			resp, body := ft.send(t, ep, true, bytes.NewReader(ep.body))
			checkFramed(t, resp.StatusCode, http.StatusServiceUnavailable, resp.Header, body)
			checkLength(t, resp, body)
			release()
			ft.settled(t, before, tally{shed: 1})
			ft.wellFormed(t, ep)
		}},

	// The client gives up while its request waits for a slot: the wait
	// ends with it, as a shed. Driven through the handler so the answer
	// nobody is left to read can still be read.
	{name: "client_gone_queued", lim: frameLimits{workers: 1, depth: 4, timeout: 5 * time.Second}, covers: behindGate,
		run: func(t *testing.T, ft *frameTier, ep frameEndpoint) {
			before := ft.idle(t)
			release := ft.holdSlots(t)
			ctx, cancel := context.WithCancel(context.Background())
			req := ep.request("", true, bytes.NewReader(ep.body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			done := make(chan struct{})
			go func() {
				defer close(done)
				ft.tier.Handler().ServeHTTP(rec, req)
			}()
			ft.waitQueued(t, 1)
			cancel()
			<-done
			checkFramed(t, rec.Code, http.StatusServiceUnavailable, rec.Header(), rec.Body.Bytes())
			release()
			ft.settled(t, before, tally{shed: 1})
			ft.wellFormed(t, ep)
		}},

	// Draining flips readiness and nothing else: a request that still
	// arrives (a straggler on a live connection) is served whole.
	{name: "draining", lim: roomy,
		once: func(t *testing.T, ft *frameTier) {
			if err := ft.tier.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if resp, _ := ft.do(t, http.MethodGet, ft.url+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
			}
		},
		run: servedWhole},
}

func TestFrameConformance(t *testing.T) {
	tiers := []struct {
		name  string
		build func(testing.TB, frameLimits) *frameTier
	}{{"avrd", newAvrdTier}, {"router", newRouterTier}}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			for _, c := range frameCases {
				t.Run(c.name, func(t *testing.T) {
					ft := tier.build(t, c.lim)
					if c.once != nil {
						c.once(t, ft)
					}
					for _, ep := range ft.eps {
						if c.covers == nil || c.covers(ep) {
							t.Run(ep.name, func(t *testing.T) { c.run(t, ft, ep) })
						}
					}
				})
			}

			// Monitoring sits outside admission: with every slot held and
			// the queue full it still answers, its length declared, and
			// the exposition passes the strict linter.
			t.Run("monitoring_under_overload", func(t *testing.T) {
				ft := tier.build(t, frameLimits{workers: 1, depth: 1, timeout: 5 * time.Second})
				release := ft.holdSlots(t)
				queued := make(chan int, 1)
				go func() { queued <- statusOf(frameEndpoint{method: http.MethodGet, path: "/v1/store/key"}, ft.url) }()
				defer func() { release(); <-queued }()
				ft.waitQueued(t, 1)
				paths := []string{"/v1/store/stats", "/metrics", "/healthz", "/readyz"}
				if tier.name == "router" { // avrd's process-wide series are on /metrics only
					paths = append(paths, "/v1/stats")
				}
				for _, path := range paths {
					resp, body := ft.do(t, http.MethodGet, ft.url+path, nil)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s under overload: %d", path, resp.StatusCode)
					}
					if path != "/metrics" { // the exposition streams
						checkLength(t, resp, body)
					} else if err := obs.LintExposition(body); err != nil {
						t.Errorf("/metrics exposition: %v", err)
					}
				}
			})
		})
	}
}
