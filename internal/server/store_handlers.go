package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"avr/internal/obs"
	"avr/internal/store"
	"avr/internal/vec"
)

// Store endpoints, registered only when Config.Store is set (avrd
// -store-dir). They ride the same admission layer as the codec
// endpoints: encode/decode work on the put/get paths competes for the
// same bounded worker slots, so a storm of store traffic sheds with 429
// instead of starving the stateless codec service.
//
//	PUT  /v1/store/put?key=K[&width=64]  raw little-endian values in,
//	                                     PutResult JSON out; with
//	                                     Content-Type: application/x-avr
//	                                     the body is an encoded-put
//	                                     container (store.Encoder) and
//	                                     is committed as it is: 400 if
//	                                     malformed, 409 if encoded at
//	                                     another t1
//	GET  /v1/store/get?key=K             raw little-endian values out;
//	                                     a torn vector returns its
//	                                     recovered prefix as 206 with
//	                                     X-AVR-Complete: false
//	GET  /v1/store/query?key=K&op=OP     compressed-domain query JSON:
//	                                     op=aggregate (default),
//	                                     op=filter&lo=L&hi=H, or
//	                                     op=downsample; answers carry
//	                                     error_bound plus bytes_touched
//	                                     vs bytes_total, and a torn
//	                                     vector answers as 206 over its
//	                                     recovered prefix
//	DELETE /v1/store/key?key=K           durable tombstone
//	GET  /v1/store/key                   every live key, sorted (JSON)
//	POST /v1/store/mput                  batched multi-key put (JSON,
//	                                     see batch.go)
//	POST /v1/store/mget                  batched multi-key get (JSON)
//	GET  /v1/store/stats                 store snapshot JSON

// registerStore wires the store endpoints onto the mux.
func (s *Server) registerStore() {
	s.mux.HandleFunc("PUT /v1/store/put", s.handleStorePut)
	s.mux.HandleFunc("POST /v1/store/put", s.handleStorePut) // curl-friendly alias
	s.mux.HandleFunc("GET /v1/store/get", s.handleStoreGet)
	s.mux.HandleFunc("GET /v1/store/query", s.handleStoreQuery)
	s.mux.HandleFunc("DELETE /v1/store/key", s.handleStoreDelete)
	s.mux.HandleFunc("GET /v1/store/stats", s.handleStoreStats)
	s.registerBatch()
}

// storeFail maps store errors onto HTTP status codes.
func storeFail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrNotFound):
		fail(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, store.ErrWidth):
		fail(w, http.StatusConflict, "%v", err)
	case errors.Is(err, store.ErrClosed):
		fail(w, http.StatusServiceUnavailable, "%v", err)
	default:
		fail(w, http.StatusInternalServerError, "%v", err)
	}
}

// EncodedPutType is the Content-Type of a put whose body is an
// encoded-put container instead of raw values.
const EncodedPutType = "application/x-avr"

// RawPutValues turns a raw single-key put — its width parameter and its
// little-endian body — into floats, replacing dst's contents. The error
// is the 400 both tiers answer with.
func RawPutValues(dst vec.Vec, widthParam string, body []byte) (vec.Vec, error) {
	width := 32
	if widthParam != "" {
		var err error
		width, err = strconv.Atoi(widthParam)
		if err != nil || (width != 32 && width != 64) {
			return dst, fmt.Errorf("bad width %q: want 32 or 64", widthParam)
		}
	}
	if len(body) == 0 || len(body)%(width/8) != 0 {
		return dst, fmt.Errorf("body length %d not a positive multiple of %d-bit values", len(body), width)
	}
	return dst.Reset(width).FromLE(body), nil
}

// handleStorePut serves PUT /v1/store/put: raw little-endian values in,
// or a container of blocks encoded elsewhere; persisted approximate
// blocks out.
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	sp := s.tracer.Start()
	defer s.tracer.Finish("put", sp)
	sp.WriteID(w.Header())
	obs.ServerInFlight.Add(1)
	defer obs.ServerInFlight.Add(-1)

	key := r.URL.Query().Get("key")
	if key == "" {
		fail(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	buf := s.readBody(w, r)
	if buf == nil {
		return
	}
	defer buf.Release()
	encoded := r.Header.Get("Content-Type") == EncodedPutType
	var vals vec.Vec
	if !encoded {
		vs := valScratchPool.Get().(*valScratch)
		defer valScratchPool.Put(vs)
		var err error
		if vs.vals, err = RawPutValues(vs.vals, r.URL.Query().Get("width"), buf.B); err != nil {
			fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		vals = vs.vals
	}

	if !s.acquireOr(w, r, sp, "a worker") {
		return
	}
	defer s.gate.Release()

	var res store.PutResult
	var err error
	if encoded {
		res, err = s.cfg.Store.PutEncoded(key, buf.B, sp)
	} else {
		res, err = s.cfg.Store.PutVec(key, vals, sp)
	}
	switch {
	case err == nil:
	case errors.Is(err, store.ErrClosed):
		storeFail(w, err)
		return
	case errors.Is(err, store.ErrT1Mismatch):
		fail(w, http.StatusConflict, "put: %v", err)
		return
	default:
		fail(w, http.StatusBadRequest, "put: %v", err)
		return
	}
	obs.ServerBytesIn.Add(int64(len(buf.B)))

	w.Header().Set("Content-Type", "application/json")
	sp.WriteHeaders(w.Header())
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(res)
}

// handleStoreGet serves GET /v1/store/get: raw little-endian values
// out. A vector whose tail was lost to a crash is served as 206 Partial
// Content with X-AVR-Complete: false — the recovered prefix is still
// within the error bound, and the client decides whether a prefix is
// acceptable.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sp := s.tracer.Start()
	defer s.tracer.Finish("get", sp)
	sp.WriteID(w.Header())
	obs.ServerInFlight.Add(1)
	defer obs.ServerInFlight.Add(-1)

	key := r.URL.Query().Get("key")
	if key == "" {
		fail(w, http.StatusBadRequest, "missing key parameter")
		return
	}

	if !s.acquireOr(w, r, sp, "a worker") {
		return
	}
	defer s.gate.Release()

	// Values and wire bytes both land in pooled scratch: a get allocates
	// neither the vector nor its serialisation.
	vs := valScratchPool.Get().(*valScratch)
	defer valScratchPool.Put(vs)
	var src store.CacheSource
	var err error
	vs.vals, src, err = s.cfg.Store.GetVec(vs.vals.Reset(0), key, true, sp)
	incomplete := errors.Is(err, store.ErrIncomplete)
	if err != nil && !incomplete {
		storeFail(w, err)
		return
	}
	// hit|miss|prefetch when the read cache is configured; omitted when
	// it is off, so clients can tell "disabled" from "missed".
	if cs := src.String(); cs != "" {
		w.Header().Set("X-AVR-Cache", cs)
	}
	vs.raw = vs.vals.AppendLE(vs.raw[:0])
	out := vs.raw

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-AVR-Width", strconv.Itoa(vs.vals.Width))
	w.Header().Set("X-AVR-Values", strconv.Itoa(vs.vals.Len()))
	w.Header().Set("X-AVR-Complete", strconv.FormatBool(!incomplete))
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	sp.WriteHeaders(w.Header())
	if incomplete {
		obs.ServerStorePartial.Add(1)
		w.WriteHeader(http.StatusPartialContent)
	}
	if _, err := w.Write(out); err != nil {
		// The client went away mid-response; the values were served from
		// the store fine, so count it as a transport error only.
		obs.ServerErrors.Add(1)
		return
	}
	obs.ServerBytesOut.Add(int64(len(out)))
	observeLatency(time.Since(t0))
}

// handleStoreQuery serves GET /v1/store/query: compressed-domain
// aggregates, range filters and downsampled fetches answered from block
// summaries without decoding full blocks. Responses carry the derived
// error bound next to every estimate plus the bytes_touched/bytes_total
// pair that proves the traffic saving: stored frame bytes read and
// CRC-verified against raw value bytes covered. Like get, a torn vector
// answers over its recovered prefix as 206 Partial Content, and a
// damaged frame is a 500, never a silently wrong number.
func (s *Server) handleStoreQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sp := s.tracer.Start()
	defer s.tracer.Finish("query", sp)
	sp.WriteID(w.Header())
	obs.ServerInFlight.Add(1)
	defer obs.ServerInFlight.Add(-1)

	params := r.URL.Query()
	key := params.Get("key")
	if key == "" {
		fail(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	op := params.Get("op")
	if op == "" {
		op = "aggregate"
	}
	var lo, hi float64
	switch op {
	case "aggregate", "downsample":
	case "filter":
		var err error
		if lo, err = strconv.ParseFloat(params.Get("lo"), 64); err != nil {
			fail(w, http.StatusBadRequest, "bad lo parameter %q", params.Get("lo"))
			return
		}
		if hi, err = strconv.ParseFloat(params.Get("hi"), 64); err != nil {
			fail(w, http.StatusBadRequest, "bad hi parameter %q", params.Get("hi"))
			return
		}
		if !(lo <= hi) {
			fail(w, http.StatusBadRequest, "bad filter range [%g, %g]", lo, hi)
			return
		}
	default:
		fail(w, http.StatusBadRequest,
			"bad op %q: want aggregate, filter or downsample", op)
		return
	}

	if !s.acquireOr(w, r, sp, "a worker") {
		return
	}
	defer s.gate.Release()

	// The body is json.MarshalIndent's rendering for every op; a
	// downsample's — two float arrays a sixteenth of the vector long — is
	// written by hand (appendDownsampleJSON) straight into the pooled
	// response buffer.
	buf := GetBuf()
	defer buf.Release()
	var (
		complete    bool
		err, encErr error
	)
	switch op {
	case "aggregate":
		var a store.AggregateResult
		if a, err = s.cfg.Store.QueryAggregateTraced(key, sp); err == nil {
			complete = a.Complete
			buf.B, encErr = appendIndented(buf.B, a)
		}
	case "filter":
		var f store.FilterResult
		if f, err = s.cfg.Store.QueryFilterTraced(key, lo, hi, sp); err == nil {
			complete = f.Complete
			buf.B, encErr = appendIndented(buf.B, f)
		}
	case "downsample":
		var d store.DownsampleResult
		if d, err = s.cfg.Store.QueryDownsampleTraced(key, sp); err == nil {
			complete = d.Complete
			buf.B, encErr = appendDownsampleJSON(buf.B, &d)
		}
	}
	if err != nil {
		storeFail(w, err)
		return
	}
	if encErr != nil {
		fail(w, http.StatusInternalServerError, "encoding result: %v", encErr)
		return
	}
	buf.B = append(buf.B, '\n')
	body := buf.B
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-AVR-Complete", strconv.FormatBool(complete))
	sp.WriteHeaders(w.Header())
	if !complete {
		obs.ServerStorePartial.Add(1)
		w.WriteHeader(http.StatusPartialContent)
	}
	if _, err := w.Write(body); err != nil {
		obs.ServerErrors.Add(1)
		return
	}
	obs.ServerBytesOut.Add(int64(len(body)))
	observeLatency(time.Since(t0))
}

// handleStoreDelete serves DELETE /v1/store/key.
func (s *Server) handleStoreDelete(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		fail(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	if err := s.cfg.Store.Delete(key); err != nil {
		storeFail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStoreStats serves GET /v1/store/stats.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.cfg.Store.Stats())
}
