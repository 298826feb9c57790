package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"avr/internal/block"
	"avr/internal/obs"
	"avr/internal/store"
	"avr/internal/trace"
	"avr/internal/vec"
)

// Config tunes the codec service. The zero value of any field selects
// its default.
type Config struct {
	// TierConfig is the frame's settings, shared with the router.
	TierConfig
	// T1 is the per-value error threshold for requests that do not pass
	// ?t1= (non-positive selects the experiment default, 1/32).
	T1 float64
	// Store, when set, enables the persistent block store endpoints
	// (/v1/store/*). The server does not own the store's lifecycle; the
	// caller opens and closes it.
	Store *store.Store
}

// Server is the avrd codec service: HTTP handlers over a pooled codec
// set, registered through the request frame (*Tier: tracing, the bounded
// worker/queue admission layer, body cap, replies, drain).
//
// Endpoints:
//
//	POST /v1/encode   raw little-endian values in (fp32, or fp64 with
//	                  ?width=64), AVR stream out; ?t1= overrides the
//	                  error threshold per request (snapped down onto
//	                  the codec-pool grid, see QuantizeT1)
//	POST /v1/decode   AVR stream in (AVR1/AVR8 sniffed from the magic),
//	                  raw little-endian values out
//	GET  /metrics     every process-wide avr.* counter and histogram
//	                  (Prometheus text exposition)
//	GET  /healthz     process liveness (always 200)
//	GET  /readyz      load-balancer readiness (503 once draining)
type Server struct {
	*Tier
	cfg  Config
	pool *CodecPool
}

// New creates a Server with the given configuration.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, pool: NewCodecPool()}
	s.Tier = NewTier(cfg.TierConfig, Counters{
		Requests: obs.ServerRequests, Shed: obs.ServerShed, Errors: obs.ServerErrors,
		InFlight: obs.ServerInFlight, BytesIn: obs.ServerBytesIn, BytesOut: obs.ServerBytesOut,
		Latency: latencyHist,
	}, func() string {
		// With the store endpoints enabled, ready also means the store can
		// still answer (not closed by a drain, not failed).
		if cfg.Store != nil && cfg.Store.Closed() {
			return "store closed"
		}
		return ""
	}, nil)
	s.Handle("POST /v1/encode", "encode", s.handleEncode)
	s.Handle("POST /v1/decode", "decode", s.handleDecode)
	if cfg.Store != nil {
		s.registerStore()
	}
	return s
}

// parseT1 resolves the per-request error threshold: ?t1= in (0,1), or
// the server default when absent.
func (s *Server) parseT1(q *Req) (float64, error) {
	p := q.Param("t1")
	if p == "" {
		return s.cfg.T1, nil
	}
	t1, err := strconv.ParseFloat(p, 64)
	if err != nil || math.IsNaN(t1) || t1 <= 0 || t1 >= 1 {
		return 0, fmt.Errorf("bad t1 %q: want a value in (0,1)", p)
	}
	return t1, nil
}

// handleEncode serves POST /v1/encode: raw little-endian values in, AVR
// stream out.
func (s *Server) handleEncode(q *Req) {
	t1, err := s.parseT1(q)
	if err != nil {
		q.Fail(http.StatusBadRequest, "%v", err)
		return
	}
	width := 32
	if p := q.Param("width"); p != "" {
		width, err = strconv.Atoi(p)
		if err != nil || (width != 32 && width != 64) {
			q.Fail(http.StatusBadRequest, "bad width %q: want 32 or 64", p)
			return
		}
	}
	body, ok := q.Body()
	if !ok {
		return
	}
	if len(body)%(width/8) != 0 {
		q.Fail(http.StatusBadRequest,
			"body length %d not a multiple of %d-bit values", len(body), width)
		return
	}
	if !q.Admit() {
		return
	}

	pt := q.Span.Begin()
	codec := s.pool.Get(t1)
	q.Span.End(trace.StagePool, pt)
	et := q.Span.Begin()
	vals := vec.Vec{Width: width}.FromLE(body)
	enc, err := vals.EncodeTo(codec, make([]byte, 0, 8+len(body)/4))
	q.Span.End(trace.StageEncode, et)
	s.pool.Put(t1, codec)
	if err != nil {
		q.Fail(http.StatusInternalServerError, "encode: %v", err)
		return
	}

	ratio := float64(len(body)) / float64(len(enc))
	ratioHist.Observe(ratio)
	obs.ServerEncodes.Add(1)
	q.Header().Set("X-AVR-Values", strconv.Itoa(vals.Len()))
	q.Header().Set("X-AVR-Ratio", strconv.FormatFloat(ratio, 'f', 3, 64))
	q.Reply(http.StatusOK, "application/octet-stream", enc)
}

// handleDecode serves POST /v1/decode: AVR stream in (format sniffed
// from the magic), raw little-endian values out.
func (s *Server) handleDecode(q *Req) {
	body, ok := q.Body()
	if !ok || !q.Admit() {
		return
	}

	// Decoding is threshold-independent; any pooled codec serves.
	pt := q.Span.Begin()
	codec := s.pool.Get(s.cfg.T1)
	q.Span.End(trace.StagePool, pt)
	dt := q.Span.Begin()
	vs := valScratchPool.Get().(*valScratch)
	defer valScratchPool.Put(vs) // after Reply: the body may be vs.vals' memory
	var err error
	if width := block.StreamWidth(body); width == 0 {
		err = errors.New("unrecognised stream magic (want AVR1 or AVR8)")
	} else {
		vs.vals, err = vs.vals.Reset(width).DecodeAppend(codec, body)
	}
	q.Span.End(trace.StageDecode, dt)
	s.pool.Put(s.cfg.T1, codec)
	if err != nil {
		q.Fail(http.StatusBadRequest, "decode: %v", err)
		return
	}

	q.Reply(http.StatusOK, "application/octet-stream", vs.vals.LE(vs.raw))
}
