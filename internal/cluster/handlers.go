package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"avr/internal/obs"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/trace"
)

// readBody reads a request body under the router's size cap into a
// pooled buffer for the caller to release. On failure it has answered
// the request — 413 for a body over the cap, as avrd does — and returns
// nil.
func (ro *Router) readBody(w http.ResponseWriter, r *http.Request) *server.Buf {
	body, err := server.ReadRequestBody(w, r, ro.cfg.MaxBodyBytes)
	if err != nil {
		code, msg := server.BodyFailure(err)
		http.Error(w, msg, code)
		return nil
	}
	return body
}

// httpErrf writes a plain-text error response.
func httpErrf(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// writeJSON writes a JSON response with the router's trace headers.
func writeJSON(w http.ResponseWriter, sp *trace.Span, res any) {
	body, err := json.Marshal(res)
	if err != nil {
		httpErrf(w, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	writeBody(w, sp, append(body, '\n'))
}

// writeBody writes an encoded JSON response, its length declared so the
// reader can size for it.
func writeBody(w http.ResponseWriter, sp *trace.Span, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	sp.WriteHeaders(w.Header())
	w.Write(body)
}

// legErrString renders a failed leg for per-key error reporting.
func legErrString(lr legResult, nodeName string) string {
	if lr.err != nil {
		return lr.err.Error()
	}
	return fmt.Sprintf("%s: downstream %d", nodeName, lr.status)
}

// handlePut serves a single-key put: the values are encoded once and
// the container goes to BOTH of the key's replicas concurrently, out of
// one shared buffer. The put succeeds when at least one replica took the
// write — the read path's bound check tolerates a stale or missing
// second copy — and X-AVR-Replicas reports how many did, so callers
// (and the smoke test) can see degraded writes.
func (ro *Router) handlePut(w http.ResponseWriter, r *http.Request) {
	sp := ro.tracer.Start()
	defer ro.tracer.Finish("put", sp)
	sp.WriteID(w.Header())

	key := r.URL.Query().Get("key")
	if key == "" {
		httpErrf(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	if r.Header.Get("Content-Type") == server.EncodedPutType {
		httpErrf(w, http.StatusUnsupportedMediaType, "%v", errEncodedItem)
		return
	}
	body := ro.readBody(w, r)
	if body == nil {
		return
	}
	defer body.Release()
	if !ro.admit(w, r, sp) {
		return
	}
	defer ro.gate.Release()
	traceID := inboundTraceID(r, sp)

	pe, failed := ro.putEncoder(r.Context(), traceID)
	if pe == nil {
		ro.failAll(w, failed)
		return
	}
	et := sp.Begin()
	es := encScratchPool.Get().(*encScratch)
	defer encScratchPool.Put(es)
	container := server.GetBuf()
	defer container.Release()
	var err error
	if es.vals, err = server.RawPutValues(es.vals, r.URL.Query().Get("width"), body.B); err == nil {
		container.B, err = pe.enc.AppendPut(container.B, es.vals)
	}
	sp.End(trace.StageEncode, et)
	if err != nil {
		httpErrf(w, http.StatusBadRequest, "%v", err)
		return
	}

	rt := sp.Begin()
	p, rep := ro.ring.Owners(key)
	path := "/v1/store/put?" + r.URL.RawQuery
	sp.End(trace.StageRoute, rt)

	ft := sp.Begin()
	var prLR, repLR legResult
	defer func() { prLR.release(); repLR.release() }()
	if rep >= 0 {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			prLR = ro.doLeg(r.Context(), http.MethodPut, p, path, traceID, container)
		}()
		go func() {
			defer wg.Done()
			repLR = ro.doLegRetry(r.Context(), http.MethodPut, rep, path, traceID, container)
		}()
		wg.Wait()
	} else {
		prLR = ro.doLegRetry(r.Context(), http.MethodPut, p, path, traceID, container)
	}
	sp.End(trace.StageFanout, ft)
	// Write-through invalidation: even a failed leg may have mutated one
	// replica before erroring, so drop the cached response regardless.
	ro.invalidateKey(key)

	replicas := 0
	best := prLR
	if prLR.ok2xx() {
		replicas++
	}
	if rep >= 0 && repLR.ok2xx() {
		replicas++
		if !prLR.ok2xx() {
			best = repLR
			obs.RouterFailovers.Add(1)
		}
	}
	if replicas == 0 {
		if rep >= 0 {
			ro.failAll(w, []legResult{prLR, repLR})
		} else {
			ro.failAll(w, []legResult{prLR})
		}
		return
	}
	passthroughHeaders(w.Header(), best.header)
	sp.WriteHeaders(w.Header())
	w.Header().Set("X-AVR-Replicas", strconv.Itoa(replicas))
	w.Header().Set("Content-Length", strconv.Itoa(len(best.body)))
	w.WriteHeader(best.status)
	w.Write(best.body)
}

// proxyRead runs the read-any protocol for a single-key read: try the
// preferred (healthy-first) owner once, fall through to the other
// replica with retry-with-backoff on error, timeout, shed, or
// not-found. Not-found falls through too — during a node outage a key
// may exist only on its replica, and a read that can be answered must
// be. The reply is safe from whichever replica answers: every stored
// value was encoded at the store's quantized t1, so the client's bound
// check holds regardless of which copy served it.
//
// markMiss stamps X-AVR-Cache: miss over the leg's own verdict — set
// when the router-tier cache was consulted and missed, so the client
// measures the tier it talked to rather than the node behind it.
func (ro *Router) proxyRead(w http.ResponseWriter, r *http.Request, sp *trace.Span, key, path string, markMiss bool) {
	traceID := inboundTraceID(r, sp)
	rt := sp.Begin()
	first, second := ro.legs(key)
	sp.End(trace.StageRoute, rt)

	ft := sp.Begin()
	lr := ro.doLeg(r.Context(), http.MethodGet, first, path, traceID, nil)
	results := []legResult{lr}
	if !lr.ok2xx() && second >= 0 {
		obs.RouterFailovers.Add(1)
		lr = ro.doLegRetry(r.Context(), http.MethodGet, second, path, traceID, nil)
		results = append(results, lr)
	}
	defer lr.release()
	sp.End(trace.StageFanout, ft)

	if !lr.ok2xx() {
		ro.failAll(w, results)
		return
	}
	passthroughHeaders(w.Header(), lr.header)
	if markMiss {
		w.Header().Set("X-AVR-Cache", "miss")
	}
	sp.WriteHeaders(w.Header())
	w.Header().Set("Content-Length", strconv.Itoa(len(lr.body)))
	w.WriteHeader(lr.status)
	w.Write(lr.body)
}

// handleGet proxies GET /v1/store/get with read-any failover.
func (ro *Router) handleGet(w http.ResponseWriter, r *http.Request) {
	sp := ro.tracer.Start()
	defer ro.tracer.Finish("get", sp)
	sp.WriteID(w.Header())
	key := r.URL.Query().Get("key")
	if key == "" {
		httpErrf(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	if !ro.admit(w, r, sp) {
		return
	}
	defer ro.gate.Release()
	ct := sp.Begin()
	if ro.serveCached(w, key) {
		sp.End(trace.StageCacheHit, ct)
		sp.WriteHeaders(w.Header())
		return
	}
	ro.proxyRead(w, r, sp, key, "/v1/store/get?"+r.URL.RawQuery, ro.cache != nil)
}

// handleDelete proxies DELETE /v1/store/key to both replicas. Deleting
// is idempotent, so a replica that never had the key (404) counts as
// done; the delete fails only when no replica acknowledged it.
func (ro *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	sp := ro.tracer.Start()
	defer ro.tracer.Finish("delete", sp)
	sp.WriteID(w.Header())
	key := r.URL.Query().Get("key")
	if key == "" {
		httpErrf(w, http.StatusBadRequest, "missing key parameter")
		return
	}
	if !ro.admit(w, r, sp) {
		return
	}
	defer ro.gate.Release()
	traceID := inboundTraceID(r, sp)

	rt := sp.Begin()
	p, rep := ro.ring.Owners(key)
	path := "/v1/store/key?" + r.URL.RawQuery
	sp.End(trace.StageRoute, rt)

	ft := sp.Begin()
	results := []legResult{ro.doLegRetry(r.Context(), http.MethodDelete, p, path, traceID, nil)}
	if rep >= 0 {
		results = append(results, ro.doLegRetry(r.Context(), http.MethodDelete, rep, path, traceID, nil))
	}
	sp.End(trace.StageFanout, ft)
	ro.invalidateKey(key)

	acked, all404 := 0, true
	for _, lr := range results {
		lr.release()
		if lr.ok2xx() {
			acked++
		}
		if lr.err != nil || lr.status != http.StatusNotFound {
			all404 = false
		}
	}
	switch {
	case acked > 0:
		sp.WriteHeaders(w.Header())
		w.WriteHeader(http.StatusNoContent)
	case all404:
		httpErrf(w, http.StatusNotFound, "key not found on any replica")
	default:
		ro.failAll(w, results)
	}
}

// ClusterAggregateResult is the merged cluster-wide aggregate: per-key
// compressed-domain aggregates scattered across the shards, folded by
// the interval-arithmetic rules — counts and sums add, error bounds
// add, min/max widen (the extremum of the per-key extrema, carrying the
// widest contributing bound). Key is "*"; Keys and Nodes report the
// fan-out width.
type ClusterAggregateResult struct {
	Keys  int `json:"keys"`
	Nodes int `json:"nodes"`
	store.AggregateResult
}

// handleQuery serves GET /v1/store/query on the router. With a key
// parameter it proxies the query (any op) to the key's owners with
// read-any failover. Without one it computes a cluster-wide aggregate:
// list every shard's keys, query each key ONCE — routed to a single
// owner, so replication cannot double-count — and merge.
func (ro *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	sp := ro.tracer.Start()
	defer ro.tracer.Finish("query", sp)
	sp.WriteID(w.Header())

	if key := r.URL.Query().Get("key"); key != "" {
		if !ro.admit(w, r, sp) {
			return
		}
		defer ro.gate.Release()
		ro.proxyRead(w, r, sp, key, "/v1/store/query?"+r.URL.RawQuery, false)
		return
	}

	if op := r.URL.Query().Get("op"); op != "" && op != "aggregate" {
		httpErrf(w, http.StatusBadRequest,
			"cluster-wide query supports op=aggregate only (got %q); filter and downsample need a key", op)
		return
	}
	if !ro.admit(w, r, sp) {
		return
	}
	defer ro.gate.Release()
	traceID := inboundTraceID(r, sp)

	ft := sp.Begin()
	keys, asked, failed := ro.fanKeys(r.Context(), traceID)
	if len(failed) == asked && asked > 0 {
		sp.End(trace.StageFanout, ft)
		ro.failAll(w, failed)
		return
	}

	// Query every key once, bounded concurrency. Partial coverage is
	// reported, not hidden: a key no replica could answer marks the
	// result incomplete (Complete=false), mirroring how a torn single
	// vector answers over its prefix.
	type keyOut struct {
		agg store.AggregateResult
		ok  bool
	}
	outs := make([]keyOut, len(keys))
	sem := make(chan struct{}, 2*runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, k string) {
			defer wg.Done()
			defer func() { <-sem }()
			first, second := ro.legs(k)
			path := "/v1/store/query?op=aggregate&key=" + urlEscape(k)
			lr := ro.doLeg(r.Context(), http.MethodGet, first, path, traceID, nil)
			if !lr.ok2xx() && second >= 0 {
				obs.RouterFailovers.Add(1)
				lr = ro.doLegRetry(r.Context(), http.MethodGet, second, path, traceID, nil)
			}
			if !lr.ok2xx() {
				return
			}
			defer lr.release()
			if err := json.Unmarshal(lr.body, &outs[i].agg); err != nil {
				return
			}
			outs[i].ok = true
		}(i, k)
	}
	wg.Wait()
	sp.End(trace.StageFanout, ft)

	res := ClusterAggregateResult{Nodes: asked}
	res.Key = "*"
	res.Complete = len(failed) == 0
	first := true
	for _, o := range outs {
		if !o.ok {
			res.Complete = false
			continue
		}
		a := o.agg
		res.Keys++
		res.Count += a.Count
		res.Sum += a.Sum
		res.ErrorBound += a.ErrorBound
		res.BytesTouched += a.BytesTouched
		res.BytesTotal += a.BytesTotal
		res.BlocksAVR += a.BlocksAVR
		res.BlocksRaw += a.BlocksRaw
		res.BlocksLossless += a.BlocksLossless
		res.Complete = res.Complete && a.Complete
		if first || a.Width > res.Width {
			res.Width = a.Width
		}
		if first || a.Min < res.Min {
			res.Min = a.Min
		}
		if first || a.Max > res.Max {
			res.Max = a.Max
		}
		if a.MinErrorBound > res.MinErrorBound {
			res.MinErrorBound = a.MinErrorBound
		}
		if a.MaxErrorBound > res.MaxErrorBound {
			res.MaxErrorBound = a.MaxErrorBound
		}
		first = false
	}
	if res.Count > 0 {
		res.Mean = res.Sum / float64(res.Count)
		res.MeanErrorBound = res.ErrorBound / float64(res.Count)
	}
	if !res.Complete {
		obs.RouterErrors.Add(1)
	}
	writeJSON(w, sp, res)
}

// urlEscape query-escapes a key for a downstream URL.
func urlEscape(k string) string {
	// Keys are typically URL-safe; escape defensively without importing
	// net/url's full query builder on the hot path.
	const hex = "0123456789ABCDEF"
	safe := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~') {
			safe = false
			break
		}
	}
	if safe {
		return k
	}
	var b []byte
	for i := 0; i < len(k); i++ {
		c := k[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~' {
			b = append(b, c)
		} else {
			b = append(b, '%', hex[c>>4], hex[c&0xf])
		}
	}
	return string(b)
}

// handleStoreStats serves GET /v1/store/stats on the router: every
// node's store snapshot, keyed by node name.
func (ro *Router) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	sp := ro.tracer.Start()
	defer ro.tracer.Finish("stats", sp)
	if !ro.admit(w, r, sp) {
		return
	}
	defer ro.gate.Release()
	traceID := inboundTraceID(r, sp)

	results := make([]legResult, len(ro.nodes))
	var wg sync.WaitGroup
	for i := range ro.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = ro.doLeg(r.Context(), http.MethodGet, i, "/v1/store/stats", traceID, nil)
		}(i)
	}
	wg.Wait()

	out := make(map[string]json.RawMessage, len(ro.nodes))
	for i, lr := range results {
		defer lr.release() // out aliases the replies until it is written
		if lr.ok2xx() && json.Valid(lr.body) {
			out[ro.nodes[i].name] = json.RawMessage(lr.body)
		} else {
			msg, _ := json.Marshal(map[string]string{"error": legErrString(lr, ro.nodes[i].name)})
			out[ro.nodes[i].name] = msg
		}
	}
	writeJSON(w, sp, map[string]any{"nodes": out})
}

// RouterNodeStats is one node's view in the router's /v1/stats.
type RouterNodeStats struct {
	Name           string `json:"name"`
	Addr           string `json:"addr"`
	Up             bool   `json:"up"`
	Requests       int64  `json:"requests"`
	Failures       int64  `json:"failures"`
	LastProbeMsAgo int64  `json:"last_probe_ms_ago"`
}

// RouterStats is the GET /v1/stats payload: admission occupancy, the
// obs router counters, and per-node health/traffic — what avrtop and
// the cluster smoke test poll.
type RouterStats struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Workers       int               `json:"workers"`
	QueueDepth    int               `json:"queue_depth"`
	Queued        int64             `json:"queued"`
	Requests      int64             `json:"requests"`
	Shed          int64             `json:"shed"`
	Errors        int64             `json:"errors"`
	Fanouts       int64             `json:"fanouts"`
	Failovers     int64             `json:"failovers"`
	Retries       int64             `json:"retries"`
	BatchKeys     int64             `json:"batch_keys"`
	NodeEjects    int64             `json:"node_ejects"`
	NodeReadmits  int64             `json:"node_readmits"`
	Encoding      RouterEncoding    `json:"encoding"`
	Cache         CacheStats        `json:"cache"`
	Nodes         []RouterNodeStats `json:"nodes"`
}

// Stats snapshots the router's state.
func (ro *Router) Stats() RouterStats {
	st := RouterStats{
		UptimeSeconds: time.Since(ro.start).Seconds(),
		Workers:       ro.cfg.Workers,
		QueueDepth:    ro.cfg.QueueDepth,
		Queued:        ro.gate.Queued(),
		Requests:      obs.RouterRequests.Value(),
		Shed:          obs.RouterShed.Value(),
		Errors:        obs.RouterErrors.Value(),
		Fanouts:       obs.RouterFanouts.Value(),
		Failovers:     obs.RouterFailovers.Value(),
		Retries:       obs.RouterRetries.Value(),
		BatchKeys:     obs.RouterBatchKeys.Value(),
		NodeEjects:    obs.RouterNodeEjects.Value(),
		NodeReadmits:  obs.RouterNodeReadmits.Value(),
		Encoding:      ro.encodingStats(),
		Cache:         ro.cacheStats(),
	}
	now := time.Now().UnixNano()
	for _, nd := range ro.nodes {
		ns := RouterNodeStats{
			Name:     nd.name,
			Addr:     nd.addr,
			Up:       nd.up.Load(),
			Requests: nd.requests.Load(),
			Failures: nd.failures.Load(),
		}
		if lp := nd.lastProbe.Load(); lp > 0 {
			ns.LastProbeMsAgo = (now - lp) / int64(time.Millisecond)
		} else {
			ns.LastProbeMsAgo = -1
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// handleStats serves GET /v1/stats.
func (ro *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ro.Stats())
}
