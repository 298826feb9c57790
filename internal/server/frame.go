package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avr/internal/admit"
	"avr/internal/obs"
	"avr/internal/trace"
)

// The request frame: the one place either serving tier — avrd (Server)
// and the cluster router (internal/cluster.Router), which both embed a
// *Tier — starts a span, touches the admission gate, caps a body, writes
// an error or writes a response. A handler is a func(*Req) registered
// with Handle; what every response is therefore guaranteed to carry, and
// what the tier counters count, is DESIGN.md "The request frame". A
// guard test (frame_guard_test.go) keeps the next endpoint from growing
// its own copy.

// TierConfig is the six settings both tiers take, declared once:
// server.Config and cluster.Config embed it. The zero value of the first
// four selects the default.
type TierConfig struct {
	// Workers caps concurrently admitted requests (default GOMAXPROCS).
	Workers int
	// QueueDepth caps requests waiting for a worker slot; arrivals beyond
	// it are shed with 429 (default 4×Workers).
	QueueDepth int
	// MaxBodyBytes caps request bodies; larger ones get 413 (default
	// 8 MiB on both tiers, so what one takes the other does).
	MaxBodyBytes int64
	// QueueTimeout bounds the wait for a worker slot before a 503
	// (default 2s); the request's own context also ends the wait.
	QueueTimeout time.Duration
	// TraceSampleEvery exports one of every N finished request spans as a
	// JSON line to TraceSink (0 selects the tracer default, 64); nil
	// TraceSink disables the export. X-AVR-Trace ids, stage headers and
	// stage histograms cover every request regardless.
	TraceSampleEvery int
	TraceSink        io.Writer
}

// Counters are the obs series the frame keeps for a tier. Any of them
// may be nil — the router publishes only the first three — and is then
// kept unpublished.
type Counters struct {
	// Requests counts admitted requests; Shed the 429/503 answers of the
	// tier's own gate; Errors every other 4xx/5xx answer plus responses
	// whose write failed.
	Requests, Shed, Errors *expvar.Int
	// InFlight is the number of framed requests being served, queued
	// ones included.
	InFlight *expvar.Int
	// BytesIn and BytesOut count the request and response body bytes of
	// framed requests answered 2xx; Latency observes those requests'
	// span time in microseconds.
	BytesIn, BytesOut *expvar.Int
	Latency           *obs.SyncHistogram
}

// Tier is one serving tier's frame: its mux and http.Server, its
// admission gate, its tracer and its lifecycle.
type Tier struct {
	cfg      TierConfig
	counters Counters
	notReady func() string
	onDrain  func()
	mux      *http.ServeMux
	http     *http.Server
	gate     *admit.Gate
	tracer   *trace.Tracer
	draining atomic.Bool
	start    time.Time
	reqs     sync.Pool
}

// NewTier builds a frame serving /metrics, /healthz and /readyz; the
// tier registers the rest with Handle and HandleStats. The frame keeps
// the tier's series in c. notReady, when set, is asked by /readyz while
// the tier is not draining: a non-empty answer is served as the 503's
// body. onDrain, when set, runs in Shutdown once readiness has flipped
// and before the listener stops.
func NewTier(cfg TierConfig, c Counters, notReady func() string, onDrain func()) *Tier {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	for _, p := range []**expvar.Int{&c.Requests, &c.Shed, &c.Errors, &c.InFlight, &c.BytesIn, &c.BytesOut} {
		if *p == nil {
			*p = new(expvar.Int)
		}
	}
	tcfg := trace.Config{SampleEvery: cfg.TraceSampleEvery}
	if cfg.TraceSink != nil {
		tcfg.Sink = trace.NewSink(cfg.TraceSink)
	}
	t := &Tier{
		cfg:      cfg,
		counters: c,
		notReady: notReady,
		onDrain:  onDrain,
		mux:      http.NewServeMux(),
		gate:     admit.NewGate(cfg.Workers, cfg.QueueDepth, cfg.QueueTimeout),
		tracer:   trace.New(tcfg),
		start:    time.Now(),
	}
	t.reqs.New = func() any { return new(Req) }
	t.http = &http.Server{Handler: t.mux, ReadHeaderTimeout: 10 * time.Second}
	// Like the HandleStats endpoints these three sit outside admission
	// and tracing: monitoring must answer under overload.
	t.mux.Handle("GET /metrics", obs.MetricsHandler())
	t.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	t.mux.HandleFunc("GET /readyz", t.readyz)
	return t
}

// readyz serves GET /readyz: 200 while accepting traffic, 503 once
// draining or while the tier's NotReady hook names a reason. Health
// probers (the router's included) trust it to mean "requests sent here
// will be served".
func (t *Tier) readyz(w http.ResponseWriter, r *http.Request) {
	var why string
	switch {
	case !t.Ready():
		why = "draining"
	case t.notReady != nil:
		why = t.notReady()
	}
	if why != "" {
		http.Error(w, why, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// Config returns the tier's settings with the defaults filled in.
func (t *Tier) Config() TierConfig { return t.cfg }

// Gate returns the admission gate (occupancy for stats; tests hold its
// slots). Handlers reach it through Req.Admit only.
func (t *Tier) Gate() *admit.Gate { return t.gate }

// Uptime is the time since the tier was built.
func (t *Tier) Uptime() time.Duration { return time.Since(t.start) }

// Handler returns the tier's HTTP handler (for tests and embedding).
func (t *Tier) Handler() http.Handler { return t.mux }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (t *Tier) Serve(ln net.Listener) error { return t.http.Serve(ln) }

// Shutdown drains the tier gracefully: readiness flips to 503 so load
// balancers stop sending traffic, in-flight requests (queued included)
// run to completion, and new connections are refused. It returns when
// everything in flight has finished or ctx expires.
func (t *Tier) Shutdown(ctx context.Context) error {
	t.draining.Store(true)
	if t.onDrain != nil {
		t.onDrain()
	}
	return t.http.Shutdown(ctx)
}

// Ready reports whether the tier is accepting traffic (false once
// draining).
func (t *Tier) Ready() bool { return !t.draining.Load() }

// HandleStats registers a monitoring endpoint — snapshot() as indented
// JSON — outside admission and tracing.
func (t *Tier) HandleStats(pattern string, snapshot func() any) {
	t.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		body, err := json.MarshalIndent(snapshot(), "", "  ")
		if err != nil {
			http.Error(w, "encoding stats: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)+1))
		w.Write(append(body, '\n'))
	})
}

// Handle registers a framed endpoint. Around fn the frame starts and
// finishes the request's span under op, stamps X-AVR-Trace before fn
// runs (so even an error answer carries the id), keeps the in-flight
// gauge, gives back the worker slot if fn took one and the body buffer
// if fn read one, and feeds the latency and byte series.
func (t *Tier) Handle(pattern, op string, fn func(*Req)) {
	t.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		q := t.reqs.Get().(*Req)
		*q = Req{R: r, Span: t.tracer.Start(), w: w, t: t}
		q.Span.WriteID(w.Header())
		t.counters.InFlight.Add(1)
		defer t.finish(op, q)
		fn(q)
	})
}

func (t *Tier) finish(op string, q *Req) {
	if q.admitted {
		t.gate.Release()
	}
	c := &t.counters
	c.InFlight.Add(-1)
	total := t.tracer.Finish(op, q.Span)
	if q.served {
		c.Latency.Observe(float64(total.Microseconds()))
		if q.body != nil {
			c.BytesIn.Add(int64(len(q.body.B)))
		}
	}
	q.body.Release()
	*q = Req{}
	t.reqs.Put(q)
}

// Req is one framed request: what a handler reads the request through
// and the only way it answers. Pooled; dead once the handler returns.
type Req struct {
	R    *http.Request
	Span *trace.Span

	w        http.ResponseWriter
	t        *Tier
	query    url.Values
	body     *Buf
	admitted bool
	served   bool // a 2xx answer went out whole
}

// Header returns the response header map.
func (q *Req) Header() http.Header { return q.w.Header() }

// Param returns a query-string parameter ("" when absent); the query
// string is parsed once per request.
func (q *Req) Param(name string) string {
	if q.query == nil {
		q.query = q.R.URL.Query()
	}
	return q.query.Get(name)
}

// Key returns the key parameter. Without one it has answered 400 and
// returns "".
func (q *Req) Key() string {
	key := q.Param("key")
	if key == "" {
		q.Fail(http.StatusBadRequest, "missing key parameter")
	}
	return key
}

// Body reads the request body under the tier's cap into a pooled buffer
// the frame gives back after the handler. On failure it has answered —
// 413 for a body over the cap, declared or chunked, 400 otherwise — and
// returns false.
func (q *Req) Body() ([]byte, bool) {
	limit := q.t.cfg.MaxBodyBytes
	rd := http.MaxBytesReader(q.w, q.R.Body, limit)
	defer rd.Close()
	// A declared length over the cap fails on the read; do not size for it.
	buf, err := ReadBody(rd, min(q.R.ContentLength, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			q.Fail(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", mbe.Limit)
		} else {
			q.Fail(http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	q.body = buf
	return buf.B, true
}

// Admit runs the admission handshake, timed as the queue stage: true
// means the request holds a worker slot, which the frame gives back
// after the handler. Otherwise the shed answer has been written: 429
// plus the queue-derived Retry-After when the queue is full (the
// backpressure signal), 503 when the wait for a slot outlived the queue
// timeout or the client.
func (q *Req) Admit() bool {
	qt := q.Span.Begin()
	err := q.t.gate.Acquire(q.R.Context())
	q.Span.End(trace.StageQueue, qt)
	if err == nil {
		q.admitted = true
		q.t.counters.Requests.Add(1)
		return true
	}
	q.t.counters.Shed.Add(1)
	if errors.Is(err, admit.ErrQueueFull) {
		q.Header().Set("Retry-After", strconv.Itoa(q.t.gate.RetryAfter()))
		http.Error(q.w, "queue full, retry later", http.StatusTooManyRequests)
	} else {
		http.Error(q.w, "timed out waiting for a worker", http.StatusServiceUnavailable)
	}
	return false
}

// Fail counts and writes one plain-text error answer.
func (q *Req) Fail(code int, format string, args ...any) {
	q.t.counters.Errors.Add(1)
	http.Error(q.w, fmt.Sprintf(format, args...), code)
}

// Reply writes a 2xx answer: the span's stage headers, the body's length
// declared, exactly one Write. contentType "" keeps what the handler put
// in Header (a proxied leg's). A write that fails — the client went away
// mid-response — counts as an error, not as a served request.
func (q *Req) Reply(status int, contentType string, body []byte) {
	h := q.w.Header()
	if contentType != "" {
		h.Set("Content-Type", contentType)
	}
	q.Span.WriteHeaders(h)
	if status == http.StatusNoContent { // no body, and no length to declare
		q.w.WriteHeader(status)
		q.served = true
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	q.w.WriteHeader(status)
	if _, err := q.w.Write(body); err != nil {
		q.t.counters.Errors.Add(1)
		return
	}
	q.served = true
	q.t.counters.BytesOut.Add(int64(len(body)))
}

// ReplyJSON is Reply for a value rendered as encoding/json's Encoder
// does: compact, newline-terminated.
func (q *Req) ReplyJSON(status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		q.Fail(http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	q.Reply(status, "application/json", append(body, '\n'))
}
