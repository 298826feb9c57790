package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"avr/internal/admit"
	"avr/internal/block"
	"avr/internal/obs"
	"avr/internal/store"
	"avr/internal/trace"
	"avr/internal/vec"
)

// Config tunes the codec service. The zero value of any field selects
// its default.
type Config struct {
	// Workers caps concurrent codec operations (default GOMAXPROCS).
	Workers int
	// QueueDepth caps requests waiting for a worker slot; arrivals
	// beyond it are shed with 429 (default 4×Workers).
	QueueDepth int
	// MaxBodyBytes caps request bodies; larger bodies get 413
	// (default 8 MiB).
	MaxBodyBytes int64
	// QueueTimeout bounds how long a request may wait for a worker slot
	// before being shed with 503 (default 2s). The request's own
	// context (client disconnect) also cancels the wait.
	QueueTimeout time.Duration
	// T1 is the per-value error threshold for requests that do not pass
	// ?t1= (non-positive selects the experiment default, 1/32).
	T1 float64
	// Store, when set, enables the persistent block store endpoints
	// (/v1/store/*). The server does not own the store's lifecycle; the
	// caller opens and closes it.
	Store *store.Store
	// TraceSampleEvery exports one of every N finished request spans as
	// a JSON line to TraceSink (0 selects the tracer default, 64).
	// Tracing itself — X-AVR-Trace ids, per-stage response headers, and
	// the stage histograms behind /v1/stats and /metrics — always covers
	// every request; sampling gates only the JSONL export volume.
	TraceSampleEvery int
	// TraceSink receives the sampled span JSONL (avrd -trace-file); nil
	// disables export.
	TraceSink io.Writer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	return c
}

// Server is the avrd codec service: HTTP handlers over a pooled codec
// set behind a bounded worker/queue admission layer.
//
// Endpoints:
//
//	POST /v1/encode   raw little-endian values in (fp32, or fp64 with
//	                  ?width=64), AVR stream out; ?t1= overrides the
//	                  error threshold per request (snapped down onto
//	                  the codec-pool grid, see QuantizeT1)
//	POST /v1/decode   AVR stream in (AVR1/AVR8 sniffed from the magic),
//	                  raw little-endian values out
//	GET  /v1/stats    serving-path counters and histograms as JSON
//	GET  /healthz     process liveness (always 200)
//	GET  /readyz      load-balancer readiness (503 once draining)
type Server struct {
	cfg  Config
	pool *CodecPool
	mux  *http.ServeMux
	http *http.Server

	// gate is the bounded worker/queue admission layer.
	gate     *admit.Gate
	draining atomic.Bool
	start    time.Time

	// tracer spans every request for per-stage latency attribution.
	tracer *trace.Tracer
}

// New creates a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		pool:  NewCodecPool(),
		mux:   http.NewServeMux(),
		gate:  admit.NewGate(cfg.Workers, cfg.QueueDepth, cfg.QueueTimeout),
		start: time.Now(),
	}
	tcfg := trace.Config{SampleEvery: cfg.TraceSampleEvery}
	if cfg.TraceSink != nil {
		tcfg.Sink = trace.NewSink(cfg.TraceSink)
	}
	s.tracer = trace.New(tcfg)
	s.mux.HandleFunc("POST /v1/encode", s.handleEncode)
	s.mux.HandleFunc("POST /v1/decode", s.handleDecode)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /metrics", obs.MetricsHandler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Store != nil {
		s.registerStore()
	}
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// Shutdown drains the server gracefully: readiness flips to 503 so load
// balancers stop sending traffic, in-flight requests (queued included)
// run to completion, and new connections are refused. It returns when
// everything in flight has finished or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.http.Shutdown(ctx)
}

// Ready reports whether the server is accepting traffic (false once
// draining).
func (s *Server) Ready() bool { return !s.draining.Load() }

// fail records and writes one error response.
func fail(w http.ResponseWriter, code int, format string, args ...any) {
	obs.ServerErrors.Add(1)
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// acquireOr runs the admission handshake every handler that does codec
// or store work shares: true means the caller holds a worker slot and
// must s.gate.Release(). Otherwise the shed response has been written —
// 429 plus the queue-derived Retry-After hint when the queue is full
// (the backpressure signal), 503 when the wait for a slot outlived the
// queue timeout or the client. worker names what was waited for.
func (s *Server) acquireOr(w http.ResponseWriter, r *http.Request, sp *trace.Span, worker string) bool {
	qt := sp.Begin()
	err := s.gate.Acquire(r.Context())
	sp.End(trace.StageQueue, qt)
	if err == nil {
		obs.ServerRequests.Add(1)
		return true
	}
	obs.ServerShed.Add(1)
	if errors.Is(err, admit.ErrQueueFull) {
		w.Header().Set("Retry-After", strconv.Itoa(s.gate.RetryAfter()))
		http.Error(w, "codec queue full, retry later", http.StatusTooManyRequests)
	} else {
		http.Error(w, "timed out waiting for "+worker, http.StatusServiceUnavailable)
	}
	return false
}

// parseT1 resolves the per-request error threshold: ?t1= in (0,1), or
// the server default when absent.
func (s *Server) parseT1(r *http.Request) (float64, error) {
	q := r.URL.Query().Get("t1")
	if q == "" {
		return s.cfg.T1, nil
	}
	t1, err := strconv.ParseFloat(q, 64)
	if err != nil || math.IsNaN(t1) || t1 <= 0 || t1 >= 1 {
		return 0, fmt.Errorf("bad t1 %q: want a value in (0,1)", q)
	}
	return t1, nil
}

// handleEncode serves POST /v1/encode: raw little-endian values in, AVR
// stream out.
func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sp := s.tracer.Start()
	defer s.tracer.Finish("encode", sp)
	sp.WriteID(w.Header())
	obs.ServerInFlight.Add(1)
	defer obs.ServerInFlight.Add(-1)

	t1, err := s.parseT1(r)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	width := 32
	if q := r.URL.Query().Get("width"); q != "" {
		width, err = strconv.Atoi(q)
		if err != nil || (width != 32 && width != 64) {
			fail(w, http.StatusBadRequest, "bad width %q: want 32 or 64", q)
			return
		}
	}
	buf := s.readBody(w, r)
	if buf == nil {
		return
	}
	defer buf.Release()
	body := buf.B
	if len(body)%(width/8) != 0 {
		fail(w, http.StatusBadRequest,
			"body length %d not a multiple of %d-bit values", len(body), width)
		return
	}

	if !s.acquireOr(w, r, sp, "a codec worker") {
		return
	}
	defer s.gate.Release()

	pt := sp.Begin()
	codec := s.pool.Get(t1)
	sp.End(trace.StagePool, pt)
	et := sp.Begin()
	vals := vec.Vec{Width: width}.FromLE(body)
	enc, err := vals.EncodeTo(codec, make([]byte, 0, 8+len(body)/4))
	sp.End(trace.StageEncode, et)
	s.pool.Put(t1, codec)
	if err != nil {
		fail(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}

	ratio := float64(len(body)) / float64(len(enc))
	ratioHist.Observe(ratio)
	obs.ServerEncodes.Add(1)
	obs.ServerBytesIn.Add(int64(len(body)))
	obs.ServerBytesOut.Add(int64(len(enc)))

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-AVR-Values", strconv.Itoa(vals.Len()))
	w.Header().Set("X-AVR-Ratio", strconv.FormatFloat(ratio, 'f', 3, 64))
	sp.WriteHeaders(w.Header())
	w.Write(enc)
	observeLatency(time.Since(t0))
}

// handleDecode serves POST /v1/decode: AVR stream in (format sniffed
// from the magic), raw little-endian values out.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sp := s.tracer.Start()
	defer s.tracer.Finish("decode", sp)
	sp.WriteID(w.Header())
	obs.ServerInFlight.Add(1)
	defer obs.ServerInFlight.Add(-1)

	buf := s.readBody(w, r)
	if buf == nil {
		return
	}
	defer buf.Release()
	body := buf.B

	if !s.acquireOr(w, r, sp, "a codec worker") {
		return
	}
	defer s.gate.Release()

	// Decoding is threshold-independent; any pooled codec serves.
	pt := sp.Begin()
	codec := s.pool.Get(s.cfg.T1)
	sp.End(trace.StagePool, pt)
	dt := sp.Begin()
	vs := valScratchPool.Get().(*valScratch)
	defer valScratchPool.Put(vs)
	var err error
	if width := block.StreamWidth(body); width == 0 {
		err = errors.New("unrecognised stream magic (want AVR1 or AVR8)")
	} else if vs.vals, err = vs.vals.Reset(width).DecodeAppend(codec, body); err == nil {
		vs.raw = vs.vals.AppendLE(vs.raw[:0])
	}
	out := vs.raw // stale on error, and then not sent
	sp.End(trace.StageDecode, dt)
	s.pool.Put(s.cfg.T1, codec)
	if err != nil {
		fail(w, http.StatusBadRequest, "decode: %v", err)
		return
	}

	obs.ServerDecodes.Add(1)
	obs.ServerBytesIn.Add(int64(len(body)))
	obs.ServerBytesOut.Add(int64(len(out)))

	w.Header().Set("Content-Type", "application/octet-stream")
	sp.WriteHeaders(w.Header())
	w.Write(out)
	observeLatency(time.Since(t0))
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshotStats())
}

// handleHealthz serves GET /healthz: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz serves GET /readyz: 200 while accepting traffic, 503
// once draining — and, when the store endpoints are enabled, 503 once
// the store can no longer answer (closed by drain or failed). Health
// probers (the cluster router's included) trust this endpoint to mean
// "requests sent here will be served", so it must reflect store health,
// not just server lifecycle.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.cfg.Store != nil && s.cfg.Store.Closed() {
		http.Error(w, "store closed", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}
