package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"avr/internal/store"
	"avr/internal/vec"
)

// Batched store endpoints: one HTTP round-trip moves many keys, so a
// router tier (internal/cluster) amortizes its per-node fan-out and a
// client amortizes connection overhead. The wire format is JSON with
// base64 value payloads — what the Batch* types below marshal to with
// encoding/json, which is how clients are free to produce and parse it
// — because a partial-failure-tolerant batch needs per-key results, and
// one self-describing text format is the only one there is.
//
//	POST /v1/store/mput   BatchPutRequest in, BatchPutResult out
//	POST /v1/store/mget   BatchGetRequest in, BatchGetResult out
//	GET  /v1/store/key    {"keys":[...]} — every live key, sorted
//
// The serving tiers themselves run the two payload-bearing messages,
// BatchPutRequest and BatchGetResult, through the single-pass scanner
// and emitter of batchwire.go instead: a payload is base64-decoded once,
// straight into pooled scratch, where its bytes are needed (to store
// them on avrd, to encode them on the router, to rebuild the values of a
// shard's container on the router) — one pass that is also the text's
// only check; a get payload is encoded once, straight into the pooled
// response buffer (avrd's mget, the router's re-emitted one). The two
// small payload-free messages stay on encoding/json.
//
// "encoded" is one word in both directions: an mput item that carries a
// container (store.Encoder) instead of raw values, and an mget that asks
// for every key's container (store.GetEncoded) instead of its values —
// which is how the router reads from avrd; each such result says
// "encoded": true.
//
// A batch holds one admission slot for its whole run: admission bounds
// concurrent work, and a batch is one unit of work whose cost scales
// with its item count (cap batches client-side; the body cap bounds
// the worst case).

// BatchPutItem is one key's payload in a batched put, base64-encoded on
// the wire: raw little-endian values (Width 0 defaults to 32), or — with
// Encoded set, which is how the router writes to avrd — an encoded-put
// container (store.Encoder), which names its own width.
type BatchPutItem struct {
	Key     string `json:"key"`
	Width   int    `json:"width,omitempty"`
	Encoded bool   `json:"encoded,omitempty"`
	Data    []byte `json:"data"`
}

// BatchPutRequest is the /v1/store/mput body.
type BatchPutRequest struct {
	Items []BatchPutItem `json:"items"`
}

// BatchPutItemResult reports one key's outcome in a batched put. OK
// false carries the error; the put result fields are zero. Replicas is
// filled by the router tier (how many replica writes succeeded) and 0
// on a single node.
type BatchPutItemResult struct {
	Key      string  `json:"key"`
	OK       bool    `json:"ok"`
	Error    string  `json:"error,omitempty"`
	Values   int     `json:"values,omitempty"`
	Blocks   int     `json:"blocks,omitempty"`
	Ratio    float64 `json:"ratio,omitempty"`
	Replicas int     `json:"replicas,omitempty"`
}

// BatchPutResult is the /v1/store/mput response: one result per
// request item, in request order. The HTTP status is 200 whenever the
// batch executed — per-key failures are data, not transport errors.
type BatchPutResult struct {
	Results []BatchPutItemResult `json:"results"`
}

// BatchGetRequest is the /v1/store/mget body. Encoded asks for every
// key's container in place of its values (avrd; the router answers with
// values whatever the request asks).
type BatchGetRequest struct {
	Keys    []string `json:"keys"`
	Encoded bool     `json:"encoded,omitempty"`
}

// BatchGetItemResult reports one key's outcome in a batched get: raw
// little-endian values base64-encoded — or, with Encoded set, the key's
// container, base64-encoded as on an mput item — the width they were
// stored at, and Complete false when a torn tail left only a prefix (the
// batch analogue of a 206 get). NotFound distinguishes a missing key
// from a read failure so callers can treat the two differently.
type BatchGetItemResult struct {
	Key      string `json:"key"`
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	NotFound bool   `json:"not_found,omitempty"`
	Width    int    `json:"width,omitempty"`
	Complete bool   `json:"complete,omitempty"`
	Encoded  bool   `json:"encoded,omitempty"`
	Data     []byte `json:"data,omitempty"`
}

// BatchGetResult is the /v1/store/mget response, in request key order.
type BatchGetResult struct {
	Results []BatchGetItemResult `json:"results"`
}

// valScratch is the pooled per-request value scratch of every handler
// that moves values: one key's payload as wire bytes and as floats of
// either width. The store copies what it keeps (encoded blocks on put)
// and fills what it is handed (get), so one set serves a single-key
// request, or every key of a batch in turn. A reply serves vals through
// vec.Vec.LE, which needs raw only on a big-endian host, so the bytes
// answered may be vals' own memory: the scratch goes back to the pool
// only after they are written.
type valScratch struct {
	raw  []byte
	vals vec.Vec
}

var valScratchPool = sync.Pool{New: func() any { return new(valScratch) }}

// What is wrong with a raw put item, as its per-key error reads on both
// tiers (errNotBase64 is the third).
var (
	errItemWidth  = errors.New("bad width: want 32 or 64")
	errItemLength = errors.New("data length not a positive multiple of the value width")
)

// Values decodes a raw put item: its payload onto raw[:0], and that into
// floats of the item's width replacing vals' contents. Both come back
// for reuse, whatever the outcome.
func (it *WireItem) Values(raw []byte, vals vec.Vec) ([]byte, vec.Vec, error) {
	width := it.Width
	if width == 0 {
		width = 32
	}
	if width != 32 && width != 64 {
		return raw, vals, errItemWidth
	}
	raw, err := it.AppendData(raw[:0])
	if err != nil {
		return raw, vals, err
	}
	if n := len(raw); n == 0 || n%(width/8) != 0 {
		return raw, vals, errItemLength
	}
	return raw, vals.Reset(width).FromLE(raw), nil
}

// handleStoreMput serves POST /v1/store/mput: many keys per round-trip,
// per-key success/error reporting. An item is stored through PutVec, or,
// marked encoded, through PutEncoded; a payload that is not base64, or a
// container the store refuses, is that key's error, like any other.
func (s *Server) handleStoreMput(q *Req) {
	body, ok := q.Body()
	if !ok {
		return
	}
	sc := NewBatchScanner()
	defer sc.Release()
	if err := sc.ScanPutRequest(body); err != nil {
		q.Fail(http.StatusBadRequest, "bad mput body: %v", err)
		return
	}
	if len(sc.Items) == 0 {
		q.Fail(http.StatusBadRequest, "mput body has no items")
		return
	}
	if !q.Admit() {
		return
	}

	vs := valScratchPool.Get().(*valScratch)
	defer valScratchPool.Put(vs)
	res := BatchPutResult{Results: make([]BatchPutItemResult, len(sc.Items))}
	for i := range sc.Items {
		it, out := &sc.Items[i], &res.Results[i]
		out.Key = string(it.Key)
		var pr store.PutResult
		var perr error
		if it.Encoded {
			if vs.raw, perr = it.AppendData(vs.raw[:0]); perr == nil {
				pr, perr = s.cfg.Store.PutEncoded(out.Key, vs.raw, q.Span)
			}
		} else if vs.raw, vs.vals, perr = it.Values(vs.raw, vs.vals); perr == nil {
			pr, perr = s.cfg.Store.PutVec(out.Key, vs.vals, q.Span)
		}
		if perr != nil {
			out.Error = perr.Error()
			continue
		}
		out.OK = true
		out.Values = pr.Values
		out.Blocks = pr.Blocks
		out.Ratio = pr.Ratio
	}
	q.ReplyJSON(http.StatusOK, res)
}

// handleStoreMget serves POST /v1/store/mget: many keys per round-trip,
// per-key values — or, asked for, containers — or errors. Reads take
// the disk path (GetVec without the read cache, or GetEncoded): a batch
// read attributes to segread (+decode) like any uncached get.
func (s *Server) handleStoreMget(q *Req) {
	body, ok := q.Body()
	if !ok {
		return
	}
	var req BatchGetRequest
	if err := json.Unmarshal(body, &req); err != nil {
		q.Fail(http.StatusBadRequest, "bad mget body: %v", err)
		return
	}
	if len(req.Keys) == 0 {
		q.Fail(http.StatusBadRequest, "mget body has no keys")
		return
	}
	if !q.Admit() {
		return
	}

	vs := valScratchPool.Get().(*valScratch)
	defer valScratchPool.Put(vs)
	out := GetBuf()
	defer out.Release()
	out.B = append(out.B, GetResultOpen...)
	for i, key := range req.Keys {
		if i > 0 {
			out.B = append(out.B, ',')
		}
		var (
			data  []byte
			width int
			gerr  error
		)
		if req.Encoded {
			vs.raw, width, _, gerr = s.cfg.Store.GetEncoded(vs.raw[:0], key, q.Span)
			data = vs.raw
		} else {
			vs.vals, _, gerr = s.cfg.Store.GetVec(vs.vals.Reset(0), key, false, q.Span)
			width, data = vs.vals.Width, vs.vals.LE(vs.raw)
		}
		incomplete := errors.Is(gerr, store.ErrIncomplete)
		if gerr != nil && !incomplete {
			out.B = AppendGetFailure(out.B, key, gerr.Error(), errors.Is(gerr, store.ErrNotFound))
			continue
		}
		// Base64 of the container, or of the vector's own bytes (vec.Vec.LE),
		// emitted before the next key reuses them.
		out.B = AppendGetResult(out.B, key, width, !incomplete, req.Encoded, data)
	}
	out.B = append(out.B, BatchClose+"\n"...)
	q.Reply(http.StatusOK, "application/json", out.B)
}

// handleStoreKeys serves GET /v1/store/key: every live key, sorted —
// the iteration surface cluster-wide offline verification fans out
// over.
func (s *Server) handleStoreKeys(q *Req) {
	if !q.Admit() {
		return
	}
	keys := s.cfg.Store.Keys()
	q.Header().Set("X-AVR-Keys", strconv.Itoa(len(keys)))
	q.ReplyJSON(http.StatusOK, struct {
		Keys []string `json:"keys"`
	}{Keys: keys})
}
