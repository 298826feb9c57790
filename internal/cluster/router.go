package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avr/internal/obs"
	"avr/internal/readcache"
	"avr/internal/server"
	"avr/internal/trace"
)

// The router's fixed policy. A leg's deadline bounds one downstream
// request. A failed leg (transport error or 5xx) gets retries more
// attempts, the first after retryBackoff and each later one after twice
// the last; a read's first leg gets none: it fails over to the other
// replica instead (readAny). The prober ejects a node after ejectAfter
// consecutive failed probes and readmits it after readmitAfter
// consecutive good ones.
const (
	legTimeout   = 5 * time.Second
	retries      = 2
	retryBackoff = 25 * time.Millisecond
	ejectAfter   = 2
	readmitAfter = 2
)

// Config tunes the router. The zero value of any field selects its
// default.
type Config struct {
	// Topology is the static cluster description (required).
	Topology Topology
	// TierConfig is the frame's settings, shared with avrd.
	server.TierConfig
	// ProbeInterval is the /readyz polling cadence (default 500ms;
	// negative disables the prober — for tests driving health directly).
	ProbeInterval time.Duration
	// CacheBytes is the byte budget of the router-side response cache
	// over read-any gets (0 — the default — disables it: the nodes run
	// their own summary-line caches, so the router tier opts in).
	CacheBytes int64

	// probeTimeout bounds one probe request (default ProbeInterval).
	// legTimeout and retryBackoff default to the constants of the same
	// name. Tests in this package set them shorter.
	probeTimeout time.Duration
	legTimeout   time.Duration
	retryBackoff time.Duration
	// transport, when set, wraps the router's transport before the
	// prober starts: how a test in this package injects faults on the
	// router↔shard hop.
	transport func(http.RoundTripper) http.RoundTripper
}

// withDefaults fills the router's own unset fields; the frame
// (server.NewTier) fills the ones it shares with avrd.
func (c Config) withDefaults() Config {
	if c.legTimeout <= 0 {
		c.legTimeout = legTimeout
	}
	if c.retryBackoff <= 0 {
		c.retryBackoff = retryBackoff
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = c.ProbeInterval
	}
	return c
}

// node is one downstream avrd plus its health state.
type node struct {
	name string
	addr string
	base string // http://addr

	// up is the prober's verdict: false means out of rotation. Nodes
	// start up — a cold router must route immediately; the prober
	// corrects within ejectAfter×ProbeInterval.
	up atomic.Bool
	// consecFails/consecOKs drive eject/readmit hysteresis; prober
	// goroutine only.
	consecFails int
	consecOKs   int
	// lastProbe is the unix-nano time of the last probe.
	lastProbe atomic.Int64

	// Per-node traffic accounting for /v1/stats.
	requests atomic.Int64
	failures atomic.Int64
}

// Router shards store traffic across avrd nodes: consistent-hash
// routing, replication-2 writes, read-any reads with replica fallback,
// batched multi-key fan-out, and cluster-wide query scatter/merge. It
// serves through the same request frame as avrd (*server.Tier: tracing,
// bounded worker slots + queue with 429/503 shedding, body cap, replies,
// drain) so a router in front of a slow fleet sheds instead of queueing
// unboundedly. A full queue sheds with the gate's own queue-derived
// Retry-After; downstream-caused 429s do NOT use that hint — they
// surface the max Retry-After the fleet itself asked for (see
// mergeRetryAfter).
type Router struct {
	*server.Tier
	cfg    Config
	ring   *Ring
	nodes  []*node
	client *http.Client

	stopProbe chan struct{}
	probeDone chan struct{}

	// cache holds complete get responses (nil when Config.CacheBytes is
	// 0); writeGen guards its fills against proxied writes (cache.go).
	cache    *readcache.Cache
	writeGen genTable

	// encoding is what puts are encoded at, learned from the shards
	// (nil until the first write); encMu serialises learning it
	// (encode.go).
	encoding atomic.Pointer[putEncoding]
	encMu    sync.Mutex
}

// New creates a Router for the topology and starts its health prober
// (unless disabled). Shutdown — or Close, for a router that never
// served — stops the prober.
func New(cfg Config) (*Router, error) {
	cfg.Topology = cfg.Topology.withDefaults()
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ro := &Router{cfg: cfg, ring: NewRing(cfg.Topology)}
	ro.Tier = server.NewTier(cfg.TierConfig, server.Counters{
		Requests: obs.RouterRequests, Shed: obs.RouterShed, Errors: obs.RouterErrors,
	}, nil, ro.Close)
	workers := ro.Config().Workers
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        16 * workers,
		MaxIdleConnsPerHost: 4 * workers,
		IdleConnTimeout:     90 * time.Second,
	}
	if cfg.transport != nil {
		rt = cfg.transport(rt)
	}
	// Per-leg deadlines come from request contexts; the client timeout is
	// a backstop.
	ro.client = &http.Client{Timeout: 2 * cfg.legTimeout, Transport: rt}
	for _, n := range cfg.Topology.Nodes {
		nd := &node{name: n.Name, addr: n.Addr, base: "http://" + n.Addr}
		nd.up.Store(true)
		ro.nodes = append(ro.nodes, nd)
	}
	ro.cache = readcache.New(readcache.Config{MaxBytes: cfg.CacheBytes})

	ro.Handle("PUT /v1/store/put", "put", ro.handlePut)
	ro.Handle("POST /v1/store/put", "put", ro.handlePut)
	ro.Handle("GET /v1/store/get", "get", ro.handleGet)
	ro.Handle("GET /v1/store/query", "query", ro.handleQuery)
	ro.Handle("POST /v1/store/mput", "mput", ro.handleMput)
	ro.Handle("POST /v1/store/mget", "mget", ro.handleMget)
	ro.Handle("GET /v1/store/key", "keys", ro.handleKeys)
	ro.Handle("DELETE /v1/store/key", "delete", ro.handleDelete)
	// The two stats documents (and the frame's own /metrics, /healthz and
	// /readyz) are outside admission: monitoring must answer under
	// overload. The fleet's store stats are a traced fan-out all the same.
	ro.Handle("GET /v1/store/stats", "stats", ro.handleStoreStats)
	ro.HandleStats("GET /v1/stats", func() any { return ro.Stats() })

	if cfg.ProbeInterval > 0 {
		ro.stopProbe = make(chan struct{})
		ro.probeDone = make(chan struct{})
		go ro.probeLoop()
	}
	return ro, nil
}

// Close stops the prober and gives back the cache's lines. Shutdown runs
// it once readiness has flipped; tests that use Handler directly call it
// themselves.
func (ro *Router) Close() {
	ro.stopProber()
	ro.cache.Close()
}

func (ro *Router) stopProber() {
	if ro.stopProbe != nil {
		select {
		case <-ro.stopProbe:
		default:
			close(ro.stopProbe)
		}
		<-ro.probeDone
	}
}

// mergeRetryAfter folds one downstream 429's Retry-After into the max
// seen so far. A router fronting a shedding fleet must surface the
// fleet's own backoff demand, not its (empty) queue's — otherwise a
// herd told "retry in 1s" by the router hammers nodes that asked for
// 4s. Unparsable or absent headers leave the running max unchanged;
// the caller falls back to 1s if nothing parsed.
func mergeRetryAfter(maxSecs int, h http.Header) int {
	v := h.Get("Retry-After")
	if v == "" {
		return maxSecs
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return maxSecs
	}
	if secs > maxSecs {
		return secs
	}
	return maxSecs
}

// probeLoop polls every node's /readyz on the configured cadence and
// flips nodes out of / back into rotation with ejectAfter/readmitAfter
// hysteresis.
func (ro *Router) probeLoop() {
	defer close(ro.probeDone)
	tick := time.NewTicker(ro.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ro.stopProbe:
			return
		case <-tick.C:
			for _, nd := range ro.nodes {
				ro.probeNode(nd)
			}
		}
	}
}

// probeNode issues one /readyz probe and applies the hysteresis.
func (ro *Router) probeNode(nd *node) {
	ctx, cancel := context.WithTimeout(context.Background(), ro.cfg.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.base+"/readyz", nil)
	ok := false
	if err == nil {
		resp, rerr := ro.client.Do(req)
		if rerr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK
		}
	}
	nd.lastProbe.Store(time.Now().UnixNano())
	if ok {
		nd.consecOKs++
		nd.consecFails = 0
		if !nd.up.Load() && nd.consecOKs >= readmitAfter {
			nd.up.Store(true)
			obs.RouterNodeReadmits.Add(1)
			// It may have come back configured differently.
			ro.forgetEncoding()
		}
		return
	}
	nd.consecFails++
	nd.consecOKs = 0
	if nd.up.Load() && nd.consecFails >= ejectAfter {
		nd.up.Store(false)
		obs.RouterNodeEjects.Add(1)
	}
}

// legs orders a key's owner nodes for a read or write: healthy first.
// The second element is -1 without a replica. Pure bookkeeping — part
// of the allocation-free route hot path.
func (ro *Router) legs(key string) (first, second int) {
	p, rep := ro.ring.Owners(key)
	if rep < 0 {
		return p, -1
	}
	if !ro.nodes[p].up.Load() && ro.nodes[rep].up.Load() {
		return rep, p
	}
	return p, rep
}

// legResult is one downstream attempt's outcome. A 2xx reply's body
// sits in a pooled buffer the caller gives back with release; any other
// reply is a short error text that failure reports quote long after the
// leg, so it is copied out and there is nothing to release.
type legResult struct {
	status int
	header http.Header
	body   []byte
	reply  *server.Buf // owns body on a 2xx reply
	err    error
}

// ok2xx reports a usable response (206 partial gets count: the prefix
// is still within bound).
func (lr legResult) ok2xx() bool {
	return lr.err == nil && lr.status >= 200 && lr.status < 300
}

// release returns the reply's buffer to the pool; body is dead after it.
func (lr legResult) release() { lr.reply.Release() }

// legBody reads a leg's request body out of a shared pooled buffer. The
// transport may still be writing the body after the round trip has
// returned — the node answered early, or the leg's deadline passed —
// and promises only to Close it when done, so each reader holds its own
// reference on the buffer until that Close.
type legBody struct {
	bytes.Reader
	buf    *server.Buf
	closed atomic.Bool
}

func newLegBody(buf *server.Buf) *legBody {
	buf.Retain()
	lb := &legBody{buf: buf}
	lb.Reset(buf.B)
	return lb
}

func (lb *legBody) Close() error {
	if lb.closed.CompareAndSwap(false, true) {
		lb.buf.Release()
	}
	return nil
}

// doLeg issues one downstream request and reads the whole response.
// accept, when not "", is the media type asked for (a get's container).
// body stays the caller's: doLeg takes its own references for as long
// as the transport needs the bytes.
func (ro *Router) doLeg(ctx context.Context, method string, nodeIdx int, pathAndQuery, accept, traceID string, body *server.Buf) legResult {
	nd := ro.nodes[nodeIdx]
	nd.requests.Add(1)
	obs.RouterFanouts.Add(1)
	lctx, cancel := context.WithTimeout(ctx, ro.cfg.legTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(lctx, method, nd.base+pathAndQuery, nil)
	if err != nil {
		nd.failures.Add(1)
		return legResult{err: err}
	}
	if body != nil {
		// A PUT leg carries one key's encoded-put container; the POST legs
		// are the JSON batches.
		if method == http.MethodPut {
			req.Header.Set("Content-Type", server.ContainerType)
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		if len(body.B) > 0 {
			req.ContentLength = int64(len(body.B))
			req.GetBody = func() (io.ReadCloser, error) { return newLegBody(body), nil }
			req.Body = newLegBody(body)
		}
	}
	if accept != "" {
		req.Header["Accept"] = []string{accept}
	}
	if traceID != "" {
		req.Header[trace.TraceHeader] = []string{traceID}
	}
	resp, err := ro.client.Do(req)
	if err != nil {
		nd.failures.Add(1)
		return legResult{err: fmt.Errorf("%s: %w", nd.name, err)}
	}
	defer resp.Body.Close()
	reply, err := server.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		nd.failures.Add(1)
		return legResult{err: fmt.Errorf("%s: reading response: %w", nd.name, err)}
	}
	if resp.StatusCode >= 500 {
		nd.failures.Add(1)
	}
	lr := legResult{status: resp.StatusCode, header: resp.Header, body: reply.B, reply: reply}
	if !lr.ok2xx() {
		lr.body, lr.reply = bytes.Clone(reply.B), nil
		reply.Release()
	}
	return lr
}

// doLegRetry is doLeg with retry-with-backoff for transport errors and
// 5xx responses — every leg's contract but a read's first. 4xx
// (including 404 and 429) returns immediately: the node answered;
// retrying won't change its mind.
func (ro *Router) doLegRetry(ctx context.Context, method string, nodeIdx int, pathAndQuery, accept, traceID string, body *server.Buf) legResult {
	lr := ro.doLeg(ctx, method, nodeIdx, pathAndQuery, accept, traceID, body)
	backoff := ro.cfg.retryBackoff
	for try := 0; try < retries; try++ {
		if lr.err == nil && lr.status < 500 {
			return lr
		}
		select {
		case <-ctx.Done():
			return lr
		case <-time.After(backoff):
		}
		backoff *= 2
		obs.RouterRetries.Add(1)
		lr = ro.doLeg(ctx, method, nodeIdx, pathAndQuery, accept, traceID, body)
	}
	return lr
}

// inboundTraceID resolves the trace id to propagate: forwarded when the
// client sent one (a mesh of routers shares one id per request),
// created from the span otherwise.
func inboundTraceID(q *server.Req) string {
	if id := q.R.Header.Get("X-AVR-Trace"); id != "" {
		return id
	}
	return trace.FormatID(q.Span.ID())
}

// passthroughHeaders copies the downstream response headers the client
// relies on: content type plus every X-AVR-* marker (width, values,
// completeness, ratio, and the downstream's stage timings — the
// router's own WriteHeaders then overwrites only the stages the router
// itself touched: queue, route, fanout).
func passthroughHeaders(dst http.Header, src http.Header) {
	if ct := src.Get("Content-Type"); ct != "" {
		dst.Set("Content-Type", ct)
	}
	for k, v := range src {
		if len(v) > 0 && len(k) > 6 && k[:6] == "X-Avr-" {
			dst[k] = v
		}
	}
}

// failAll writes the response for a request every leg failed: 429 with
// the fleet's merged Retry-After when any leg shed, 404 when every leg
// answered not-found, 502 otherwise.
func (ro *Router) failAll(q *server.Req, results []legResult) {
	retrySecs := 0
	all404 := len(results) > 0
	var firstErr string
	for _, lr := range results {
		if lr.err == nil && lr.status == http.StatusTooManyRequests {
			retrySecs = mergeRetryAfter(retrySecs, lr.header)
			if retrySecs == 0 {
				retrySecs = 1
			}
		}
		if lr.err != nil || lr.status != http.StatusNotFound {
			all404 = false
		}
		if firstErr == "" {
			if lr.err != nil {
				firstErr = lr.err.Error()
			} else if lr.status >= 400 {
				firstErr = fmt.Sprintf("downstream %d: %s", lr.status, bytes.TrimSpace(lr.body))
			}
		}
	}
	switch {
	case retrySecs > 0:
		q.Header().Set("Retry-After", strconv.Itoa(retrySecs))
		q.Fail(http.StatusTooManyRequests, "cluster shedding, retry later")
	case all404:
		q.Fail(http.StatusNotFound, "key not found on any replica")
	default:
		q.Fail(http.StatusBadGateway, "all replicas failed: %s", firstErr)
	}
}
