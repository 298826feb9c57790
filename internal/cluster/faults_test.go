package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/vec"
)

// faultTransport is the cluster tests' one fault injector: the router's
// own transport, wrapped (Config.transport) between it and real avrd
// shards. Whether a fault strikes a request, and where a flip lands, is a
// pure function of (seed, node, the node's ordinal for the method and
// path, method, path): a failing test names its seed, and it replays.
// Until set arms it, it passes requests on and logs nothing.
type faultTransport struct {
	next   http.RoundTripper
	hosts  map[string]int // node address → index
	mu     sync.Mutex
	seed   uint64
	faults []fault
	ords   map[exchange]int // nil until armed
	log    []exchange
}

// A fault is one kind of damage and the requests it strikes. reply
// answers status and header undelivered — with hold, the body is logged
// unread and unclosed; partition fails before delivery; drop loses the
// reply of a delivered request; delay delivers after wait unless the
// context ends first. raw, truncate, garble and flip damage a 2xx get's
// container, or each of an mget's: raw values, one byte short, the first
// byte gone (an mget's: not base64), one seeded bit flipped. Every other
// reply they strike passes through undamaged.
type fault struct {
	kind         string
	nodes        []int   // nil: every node
	method, path string  // "": any
	first        int     // > 0: only the node's first that many of the method and path
	rate         float64 // > 0: a seeded share of them
	status       int
	header       http.Header
	hold         bool
	wait         time.Duration
}

// exchange is one request in the log: the fault that struck it, and the
// status the router got (0 for an error).
type exchange struct {
	node, ordinal              int
	method, path, trace, fault string
	status                     int
	held                       io.ReadCloser
}

func (ft *faultTransport) wrap(next http.RoundTripper) http.RoundTripper {
	ft.next = next
	return ft
}

// set arms the transport with seed and faults — the first that matches a
// request strikes it — and starts the ordinals and the log over.
func (ft *faultTransport) set(seed uint64, faults ...fault) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.seed, ft.faults, ft.ords, ft.log = seed, faults, map[exchange]int{}, nil
}

// exchanges is the log so far, in arrival order, of those match accepts.
func (ft *faultTransport) exchanges(match func(exchange) bool) []exchange {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(ft.log), func(ex exchange) bool { return match != nil && !match(ex) })
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := exchange{node: ft.hosts[req.URL.Host], method: req.Method, path: req.URL.Path}
	ft.mu.Lock()
	if ft.ords == nil {
		ft.mu.Unlock()
		return ft.next.RoundTrip(req)
	}
	ord := ft.ords[ex]
	ft.ords[ex], ex.ordinal = ord+1, ord
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %s %s", ft.seed, ex.node, ex.ordinal, ex.method, ex.path)
	roll, f := h.Sum64(), &fault{}
	for i, g := range ft.faults {
		if (g.nodes == nil || slices.Contains(g.nodes, ex.node)) && (g.method == "" || g.method == ex.method) &&
			(g.path == "" || g.path == ex.path) && (g.first == 0 || ex.ordinal < g.first) &&
			(g.rate == 0 || float64(roll>>11) < g.rate*(1<<53)) {
			f = &ft.faults[i]
			break
		}
	}
	ft.mu.Unlock()

	ex.trace, ex.fault = req.Header.Get("X-AVR-Trace"), f.kind
	if f.hold {
		ex.held = req.Body
	} else if req.Body != nil && (f.kind == "reply" || f.kind == "partition") {
		req.Body.Close()
	}
	resp, err := f.strike(ft.next, roll, req)
	if err == nil {
		ex.status = resp.StatusCode
	}
	ft.mu.Lock()
	ft.log = append(ft.log, ex)
	ft.mu.Unlock()
	return resp, err
}

// strike sends req on through next with f's damage done.
func (f *fault) strike(next http.RoundTripper, roll uint64, req *http.Request) (*http.Response, error) {
	switch f.kind {
	case "reply":
		return &http.Response{StatusCode: f.status, Header: f.header.Clone(), Body: http.NoBody, Request: req}, nil
	case "partition":
		return nil, fmt.Errorf("%s: partitioned", req.URL.Host)
	case "delay":
		select {
		case <-time.After(f.wait):
		case <-req.Context().Done(): // next fails it undelivered
		}
	}
	resp, err := next.RoundTrip(req)
	if err != nil || f.kind == "" || f.kind == "delay" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || f.kind == "drop" {
		return nil, fmt.Errorf("%s: reply lost (%v)", req.URL.Host, err)
	}
	if resp.StatusCode/100 == 2 && req.URL.Path == "/v1/store/mget" {
		var res server.BatchGetResult
		json.Unmarshal(body, &res)
		for i := range res.Results {
			if it := &res.Results[i]; it.OK && f.kind != "garble" {
				it.Data, it.Encoded = f.damage(roll+uint64(i), it.Data)
			}
		}
		if body, _ = json.Marshal(res); f.kind == "garble" {
			body = bytes.ReplaceAll(body, []byte(`"data":"`), []byte(`"data":"*`))
		}
	} else if resp.StatusCode/100 == 2 && req.URL.Path == "/v1/store/get" {
		var encoded bool
		if body, encoded = f.damage(roll, body); !encoded {
			resp.Header.Set("Content-Type", "application/octet-stream")
		}
	}
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	return resp, nil
}

// damage is container c after f, and whether it still says it is one.
func (f *fault) damage(roll uint64, c []byte) ([]byte, bool) {
	switch f.kind {
	case "raw":
		v, _ := store.DecodeContainer(vec.Vec{}, c)
		return v.LE(nil), false
	case "truncate":
		return c[:len(c)-1], true
	case "garble":
		return c[1:], true
	}
	out, bit := bytes.Clone(c), roll*0x9E3779B97F4A7C15%uint64(8*len(c))
	out[bit/8] ^= 1 << (bit % 8)
	return out, true
}

// TestFaultScheduleReplays: a schedule of writes, reads, batches and
// deletes under every kind of fault at seeded rates, run on fresh
// clusters, logs the same exchanges twice for one seed and others for
// another seed.
func TestFaultScheduleReplays(t *testing.T) {
	run := func(seed uint64) map[exchange]bool {
		tc := newTestCluster(t, 3, Config{retryBackoff: time.Millisecond})
		tc.faults.set(seed,
			fault{kind: "reply", method: http.MethodPut, rate: 0.3, status: http.StatusServiceUnavailable},
			fault{kind: "drop", path: "/v1/store/mput", rate: 0.5},
			fault{kind: "partition", nodes: []int{2}, method: http.MethodDelete, rate: 0.5},
			fault{kind: "delay", path: "/v1/store/key", wait: time.Millisecond},
			fault{kind: "flip", path: "/v1/store/get", rate: 0.3},
			fault{kind: "truncate", path: "/v1/store/mget", rate: 0.5})
		var keys []string
		do := func(method, path string, body []byte) {
			req, _ := http.NewRequest(method, tc.router.URL+path, bytes.NewReader(body))
			req.Header.Set("X-AVR-Trace", fmt.Sprintf("%016x", len(keys)))
			roundTrip(t, req)
		}
		for k := 0; k < 12; k++ {
			keys = append(keys, fmt.Sprint("replay-", k))
			do(http.MethodPut, "/v1/store/put?key="+keys[k], f32le(testVals(k, 300)...))
			do(http.MethodGet, "/v1/store/get?key="+keys[k], nil)
			do(http.MethodDelete, "/v1/store/key?key="+keys[k/2], nil)
		}
		do(http.MethodPost, "/v1/store/mput", mputBody(server.BatchPutItem{Key: keys[0], Data: f32le(1, 2)}))
		do(http.MethodPost, "/v1/store/mget", mgetBody(keys...))
		log := map[exchange]bool{} // legs to different nodes interleave
		for _, ex := range tc.faults.exchanges(nil) {
			log[ex] = true
		}
		return log
	}
	a, kinds := run(7), map[string]bool{}
	if b := run(7); !maps.Equal(a, b) {
		t.Fatalf("seed 7 logged, then logged again:\n%v\n%v", a, b)
	}
	for ex := range a {
		kinds[ex.fault] = true
	}
	if len(kinds) != 7 {
		t.Errorf("seed 7 struck with %v, want every kind of the schedule", kinds)
	}
	if maps.Equal(a, run(8)) {
		t.Error("seeds 7 and 8 struck the same requests")
	}
}
