package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"avr/internal/obs"
	"avr/internal/store"
	"avr/internal/vec"
)

// Store endpoints, registered only when Config.Store is set (avrd
// -store-dir). All but the stats document ride the same admission layer
// as the codec endpoints: encode/decode work on the put/get paths
// competes for the same bounded worker slots, so a storm of store
// traffic sheds with 429 instead of starving the stateless codec service.
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
//	                                     X-AVR-Complete: false; with
//	                                     Accept: application/x-avr the
//	                                     key's container instead, its
//	                                     blocks as stored
//	                                     (store.GetEncoded), same
//	                                     headers and statuses
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
//	POST /v1/store/mget                  batched multi-key get (JSON);
//	                                     with "encoded": true each
//	                                     result carries the key's
//	                                     container
//	GET  /v1/store/stats                 store snapshot JSON

// registerStore wires the store endpoints onto the frame.
func (s *Server) registerStore() {
	s.Handle("PUT /v1/store/put", "put", s.handleStorePut)
	s.Handle("POST /v1/store/put", "put", s.handleStorePut) // curl-friendly alias
	s.Handle("GET /v1/store/get", "get", s.handleStoreGet)
	s.Handle("GET /v1/store/query", "query", s.handleStoreQuery)
	s.Handle("DELETE /v1/store/key", "delete", s.handleStoreDelete)
	s.Handle("GET /v1/store/key", "keys", s.handleStoreKeys)
	s.Handle("POST /v1/store/mput", "mput", s.handleStoreMput)
	s.Handle("POST /v1/store/mget", "mget", s.handleStoreMget)
	// The store's own snapshot sits outside admission, like the frame's
	// /metrics: monitoring must answer under overload.
	s.HandleStats("GET /v1/store/stats", func() any { return s.cfg.Store.Stats() })
}

// storeFail maps store errors onto HTTP status codes.
func storeFail(q *Req, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, store.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, store.ErrWidth):
		code = http.StatusConflict
	case errors.Is(err, store.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	q.Fail(code, "%v", err)
}

// partialStatus is the status of a get or query answer: 200, or — over
// the recovered prefix of a torn vector — a counted 206.
func partialStatus(complete bool) int {
	if complete {
		return http.StatusOK
	}
	obs.ServerStorePartial.Add(1)
	return http.StatusPartialContent
}

// ContainerType is the media type of a container (store.Encoder,
// store.GetEncoded) in place of raw values: the Content-Type of a put
// that sends one, the Accept of a get that asks for one.
const ContainerType = "application/x-avr"

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
func (s *Server) handleStorePut(q *Req) {
	key := q.Key()
	if key == "" {
		return
	}
	body, ok := q.Body()
	if !ok {
		return
	}
	encoded := q.R.Header.Get("Content-Type") == ContainerType
	var vals vec.Vec
	if !encoded {
		vs := valScratchPool.Get().(*valScratch)
		defer valScratchPool.Put(vs)
		var err error
		if vs.vals, err = RawPutValues(vs.vals, q.Param("width"), body); err != nil {
			q.Fail(http.StatusBadRequest, "%v", err)
			return
		}
		vals = vs.vals
	}
	if !q.Admit() {
		return
	}

	var res store.PutResult
	var err error
	if encoded {
		res, err = s.cfg.Store.PutEncoded(key, body, q.Span)
	} else {
		res, err = s.cfg.Store.PutVec(key, vals, q.Span)
	}
	switch {
	case err == nil:
	case errors.Is(err, store.ErrClosed):
		storeFail(q, err)
		return
	case errors.Is(err, store.ErrT1Mismatch):
		q.Fail(http.StatusConflict, "put: %v", err)
		return
	default:
		q.Fail(http.StatusBadRequest, "put: %v", err)
		return
	}
	out := GetBuf()
	defer out.Release()
	out.B, _ = appendPutJSON(out.B, &res) // a put's ratio is finite
	out.B = append(out.B, '\n')
	q.Reply(http.StatusOK, "application/json", out.B)
}

// handleStoreGet serves GET /v1/store/get: raw little-endian values out,
// or — asked for with Accept: application/x-avr — the key's container,
// its blocks as stored, for the reader to rebuild (the router does). A
// vector whose tail was lost to a crash is served as 206 Partial Content
// with X-AVR-Complete: false — the recovered prefix is still within the
// error bound, and the client decides whether a prefix is acceptable.
func (s *Server) handleStoreGet(q *Req) {
	key := q.Key()
	if key == "" || !q.Admit() {
		return
	}

	// The values, or the container, land in pooled scratch, and on a
	// little-endian host the values' body is their own memory
	// (vec.Vec.LE): a get allocates neither the vector nor its
	// serialisation, and copies neither. Reply writes the body before the
	// deferred Put hands the scratch to another request.
	vs := valScratchPool.Get().(*valScratch)
	defer valScratchPool.Put(vs)
	var (
		body     []byte
		ctype    = "application/octet-stream"
		width, n int
		src      store.CacheSource
		err      error
	)
	if q.R.Header.Get("Accept") == ContainerType {
		ctype = ContainerType
		vs.raw, width, n, err = s.cfg.Store.GetEncoded(vs.raw[:0], key, q.Span)
		body = vs.raw
	} else {
		vs.vals, src, err = s.cfg.Store.GetVec(vs.vals.Reset(0), key, true, q.Span)
		width, n, body = vs.vals.Width, vs.vals.Len(), vs.vals.LE(vs.raw)
	}
	incomplete := errors.Is(err, store.ErrIncomplete)
	if err != nil && !incomplete {
		storeFail(q, err)
		return
	}
	h := q.Header()
	// hit|miss|prefetch when the read cache is configured and was asked;
	// omitted when it is off, so clients can tell "disabled" from "missed",
	// and on a container, which is read from disk.
	if cs := src.String(); cs != "" {
		h.Set("X-AVR-Cache", cs)
	}
	h.Set("X-AVR-Width", strconv.Itoa(width))
	h.Set("X-AVR-Values", strconv.Itoa(n))
	h.Set("X-AVR-Complete", strconv.FormatBool(!incomplete))
	q.Reply(partialStatus(!incomplete), ctype, body)
}

// handleStoreQuery serves GET /v1/store/query: compressed-domain
// aggregates, range filters and downsampled fetches answered from block
// summaries without decoding full blocks. Responses carry the derived
// error bound next to every estimate plus the bytes_touched/bytes_total
// pair that proves the traffic saving: stored frame bytes read and
// CRC-verified against raw value bytes covered. Like get, a torn vector
// answers over its recovered prefix as 206 Partial Content, and a
// damaged frame is a 500, never a silently wrong number.
func (s *Server) handleStoreQuery(q *Req) {
	key := q.Key()
	if key == "" {
		return
	}
	op := q.Param("op")
	if op == "" {
		op = "aggregate"
	}
	var lo, hi float64
	switch op {
	case "aggregate", "downsample":
	case "filter":
		var err error
		if lo, err = strconv.ParseFloat(q.Param("lo"), 64); err != nil {
			q.Fail(http.StatusBadRequest, "bad lo parameter %q", q.Param("lo"))
			return
		}
		if hi, err = strconv.ParseFloat(q.Param("hi"), 64); err != nil {
			q.Fail(http.StatusBadRequest, "bad hi parameter %q", q.Param("hi"))
			return
		}
		if !(lo <= hi) {
			q.Fail(http.StatusBadRequest, "bad filter range [%g, %g]", lo, hi)
			return
		}
	default:
		q.Fail(http.StatusBadRequest,
			"bad op %q: want aggregate, filter or downsample", op)
		return
	}
	if !q.Admit() {
		return
	}

	// The body is json.MarshalIndent's rendering for every op, written by
	// hand (queryjson.go) straight into the pooled response buffer.
	buf := GetBuf()
	defer buf.Release()
	var (
		complete    bool
		err, encErr error
	)
	switch op {
	case "aggregate":
		var a store.AggregateResult
		if a, err = s.cfg.Store.QueryAggregateTraced(key, q.Span); err == nil {
			complete = a.Complete
			buf.B, encErr = appendAggregateJSON(buf.B, &a)
		}
	case "filter":
		var f store.FilterResult
		if f, err = s.cfg.Store.QueryFilterTraced(key, lo, hi, q.Span); err == nil {
			complete = f.Complete
			buf.B, encErr = appendFilterJSON(buf.B, &f)
		}
	case "downsample":
		var d store.DownsampleResult
		if d, err = s.cfg.Store.QueryDownsampleTraced(key, q.Span); err == nil {
			complete = d.Complete
			buf.B, encErr = appendDownsampleJSON(buf.B, &d)
		}
	}
	if err != nil {
		storeFail(q, err)
		return
	}
	if encErr != nil {
		q.Fail(http.StatusInternalServerError, "encoding result: %v", encErr)
		return
	}
	buf.B = append(buf.B, '\n')
	q.Header().Set("X-AVR-Complete", strconv.FormatBool(complete))
	q.Reply(partialStatus(complete), "application/json", buf.B)
}

// handleStoreDelete serves DELETE /v1/store/key: a durable tombstone — a
// write-lock append, so admitted like any other write.
func (s *Server) handleStoreDelete(q *Req) {
	key := q.Key()
	if key == "" || !q.Admit() {
		return
	}
	if err := s.cfg.Store.Delete(key); err != nil {
		storeFail(q, err)
		return
	}
	q.Reply(http.StatusNoContent, "", nil)
}
