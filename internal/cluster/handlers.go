package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"avr/internal/obs"
	"avr/internal/readcache"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/trace"
	"avr/internal/vec"
)

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
func (ro *Router) handlePut(q *server.Req) {
	key := q.Key()
	if key == "" {
		return
	}
	if q.R.Header.Get("Content-Type") == server.ContainerType {
		q.Fail(http.StatusUnsupportedMediaType, "%v", errEncodedItem)
		return
	}
	body, ok := q.Body()
	if !ok || !q.Admit() {
		return
	}
	ctx, traceID := q.R.Context(), inboundTraceID(q)

	pe, failed := ro.putEncoder(ctx, traceID)
	if pe == nil {
		ro.failAll(q, failed)
		return
	}
	et := q.Span.Begin()
	es := encScratchPool.Get().(*encScratch)
	defer encScratchPool.Put(es)
	container := server.GetBuf()
	defer container.Release()
	var err error
	if es.vals, err = server.RawPutValues(es.vals, q.Param("width"), body); err == nil {
		container.B, err = pe.enc.AppendPut(container.B, es.vals)
	}
	q.Span.End(trace.StageEncode, et)
	if err != nil {
		q.Fail(http.StatusBadRequest, "%v", err)
		return
	}

	rt := q.Span.Begin()
	owners := ro.owners(key)
	path := "/v1/store/put?" + q.R.URL.RawQuery
	q.Span.End(trace.StageRoute, rt)

	ft := q.Span.Begin()
	results := ro.fanOut(ctx, http.MethodPut, path, traceID, owners, func(int) *server.Buf {
		container.Retain() // each leg holds its own reference
		return container
	})
	q.Span.End(trace.StageFanout, ft)
	defer func() {
		for _, lr := range results {
			lr.release()
		}
	}()
	// Write-through invalidation: even a failed leg may have mutated one
	// replica before erroring, so drop the cached response regardless.
	ro.invalidateKey(key)

	replicas, best := 0, -1
	for i, lr := range results {
		if lr.ok2xx() {
			replicas++
			if best < 0 {
				best = i
			}
		}
	}
	if replicas == 0 {
		ro.failAll(q, results)
		return
	}
	if best > 0 {
		obs.RouterFailovers.Add(1)
	}
	passthroughHeaders(q.Header(), results[best].header)
	q.Header().Set("X-AVR-Replicas", strconv.Itoa(replicas))
	q.Reply(results[best].status, "", results[best].body)
}

// owners lists the nodes a write of key goes to: its primary, then its
// replica on a ring of two or more nodes.
func (ro *Router) owners(key string) []int {
	p, rep := ro.ring.Owners(key)
	if rep < 0 {
		return []int{p}
	}
	return []int{p, rep}
}

// readAny runs the read-any step for one key: the preferred
// (healthy-first) owner once, then the other replica with
// retry-with-backoff on error, timeout, shed, or not-found. Not-found
// falls through too — during a node outage a key may exist only on its
// replica, and a read that can be answered must be. The answer is safe
// from whichever replica gives it: every stored value was encoded at the
// store's quantized t1, so the client's bound check holds regardless of
// which copy served it.
//
// With into set the read is a get: each leg asks for the key's container
// (Accept: application/x-avr) and the router rebuilds the values into
// *into, charged to StageDecode on sp; a reply that is not a container,
// or does not decode, is that leg's bad response and fails over like any
// other failed leg.
//
// tried[:n] are the attempts in order and tried[n-1] the answer, whose
// reply the caller releases. sp, when not nil, is charged the route and
// fanout stages.
func (ro *Router) readAny(ctx context.Context, sp *trace.Span, key, path, traceID string, into *vec.Vec) (tried [2]legResult, n int) {
	rt := sp.Begin()
	first, second := ro.legs(key)
	sp.End(trace.StageRoute, rt)

	accept := ""
	if into != nil {
		accept = server.ContainerType
	}
	ft := sp.Begin()
	tried[0] = ro.doLeg(ctx, http.MethodGet, first, path, accept, traceID, nil)
	sp.End(trace.StageFanout, ft)
	ro.rebuildGet(sp, &tried[0], first, into)
	if tried[0].ok2xx() || second < 0 {
		return tried, 1
	}
	obs.RouterFailovers.Add(1)
	ft = sp.Begin()
	tried[1] = ro.doLegRetry(ctx, http.MethodGet, second, path, accept, traceID, nil)
	sp.End(trace.StageFanout, ft)
	ro.rebuildGet(sp, &tried[1], second, into)
	return tried, 2
}

// rebuildGet decodes the container a 2xx get leg of node answered into
// *into (nothing to do without into), and turns a reply that is not one,
// or does not decode, into that leg's failure.
func (ro *Router) rebuildGet(sp *trace.Span, lr *legResult, node int, into *vec.Vec) {
	if into == nil || !lr.ok2xx() {
		return
	}
	dt := sp.Begin()
	err := errNotContainer
	if lr.header.Get("Content-Type") == server.ContainerType {
		*into, err = store.DecodeContainer(*into, lr.body)
	}
	sp.End(trace.StageDecode, dt)
	if err != nil {
		lr.release()
		*lr = legResult{err: fmt.Errorf("%s: bad get response: %w", ro.nodes[node].name, err)}
	}
}

// errNotContainer is a shard's 2xx answer to a request for a container
// that is not one.
var errNotContainer = errors.New("not a container")

// proxyRead answers a single-key query with whatever readAny got.
func (ro *Router) proxyRead(q *server.Req, key, path string) {
	tried, n := ro.readAny(q.R.Context(), q.Span, key, path, inboundTraceID(q), nil)
	lr := tried[n-1]
	defer lr.release()
	if !lr.ok2xx() {
		ro.failAll(q, tried[:n])
		return
	}
	passthroughHeaders(q.Header(), lr.header)
	q.Reply(lr.status, "", lr.body)
}

// handleGet serves GET /v1/store/get: from the router cache when the key
// is resident, by read-any otherwise — a shard's container, rebuilt into
// pooled scratch and answered as the raw values avrd answers.
//
// A get the router-tier cache missed fills the cache from the values it
// rebuilt (Router.fill; the key's write generation is read before
// readAny) and goes out stamped X-AVR-Cache: miss, so the client measures
// the tier it talked to rather than the node behind it. With the cache
// off there is no X-AVR-Cache: a container is read from a shard's disk,
// not its cache.
func (ro *Router) handleGet(q *server.Req) {
	key := q.Key()
	if key == "" || !q.Admit() {
		return
	}
	ct := q.Span.Begin()
	if resp := ro.cachedGet(key); resp != nil {
		q.Span.End(trace.StageCacheHit, ct)
		h := q.Header()
		h.Set("X-AVR-Width", resp.width)
		h.Set("X-AVR-Values", resp.values)
		h.Set("X-AVR-Complete", "true")
		h.Set("X-AVR-Cache", "hit")
		q.Reply(http.StatusOK, "application/octet-stream", resp.body)
		return
	}
	gen := ro.writeGen.load(key)
	es := encScratchPool.Get().(*encScratch)
	defer encScratchPool.Put(es)
	tried, n := ro.readAny(q.R.Context(), q.Span, key, "/v1/store/get?"+q.R.URL.RawQuery, inboundTraceID(q), &es.vals)
	lr := tried[n-1]
	defer lr.release()
	if !lr.ok2xx() {
		ro.failAll(q, tried[:n])
		return
	}
	// The shard's markers describe the container, and so the values rebuilt
	// from it: width, count, completeness, and its own stages.
	passthroughHeaders(q.Header(), lr.header)
	body := es.vals.LE(es.raw)
	if ro.cache != nil {
		if lr.status == http.StatusOK {
			ro.fill(key, gen, body, lr.header.Get("X-AVR-Width"), lr.header.Get("X-AVR-Values"))
		}
		q.Header().Set("X-AVR-Cache", "miss")
	}
	q.Reply(lr.status, "application/octet-stream", body)
}

// handleDelete proxies DELETE /v1/store/key to both replicas. Deleting
// is idempotent, so a replica that never had the key (404) counts as
// done; the delete fails only when no replica acknowledged it.
func (ro *Router) handleDelete(q *server.Req) {
	key := q.Key()
	if key == "" || !q.Admit() {
		return
	}

	rt := q.Span.Begin()
	owners := ro.owners(key)
	path := "/v1/store/key?" + q.R.URL.RawQuery
	q.Span.End(trace.StageRoute, rt)

	ft := q.Span.Begin()
	results := ro.fanOut(q.R.Context(), http.MethodDelete, path, inboundTraceID(q), owners, nil)
	q.Span.End(trace.StageFanout, ft)
	ro.invalidateKey(key)

	acked := false
	for _, lr := range results {
		acked = acked || lr.ok2xx()
		lr.release()
	}
	if !acked {
		ro.failAll(q, results)
		return
	}
	q.Reply(http.StatusNoContent, "", nil)
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
func (ro *Router) handleQuery(q *server.Req) {
	if key := q.Param("key"); key != "" {
		if q.Admit() {
			ro.proxyRead(q, key, "/v1/store/query?"+q.R.URL.RawQuery)
		}
		return
	}

	if op := q.Param("op"); op != "" && op != "aggregate" {
		q.Fail(http.StatusBadRequest,
			"cluster-wide query supports op=aggregate only (got %q); filter and downsample need a key", op)
		return
	}
	if !q.Admit() {
		return
	}
	ctx, traceID := q.R.Context(), inboundTraceID(q)

	ft := q.Span.Begin()
	keys, asked, failed := ro.fanKeys(ctx, traceID)
	if len(failed) == asked {
		q.Span.End(trace.StageFanout, ft)
		ro.failAll(q, failed)
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
			tried, n := ro.readAny(ctx, nil, k, "/v1/store/query?op=aggregate&key="+url.QueryEscape(k), traceID, nil)
			lr := tried[n-1]
			defer lr.release()
			outs[i].ok = lr.ok2xx() && json.Unmarshal(lr.body, &outs[i].agg) == nil
		}(i, k)
	}
	wg.Wait()
	q.Span.End(trace.StageFanout, ft)

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
		// The one error the frame cannot see: a 200 that knows it is partial.
		obs.RouterErrors.Add(1)
	}
	q.ReplyJSON(http.StatusOK, res)
}

// handleStoreStats serves GET /v1/store/stats on the router: every
// node's store snapshot, keyed by node name.
func (ro *Router) handleStoreStats(q *server.Req) {
	all := make([]int, len(ro.nodes))
	for i := range all {
		all[i] = i
	}
	results := ro.fanOut(q.R.Context(), http.MethodGet, "/v1/store/stats", inboundTraceID(q), all, nil)

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
	q.ReplyJSON(http.StatusOK, map[string]any{"nodes": out})
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

// RouterStats is the GET /v1/stats payload: this router's own state —
// admission occupancy, the encoding it learned, its response cache and
// its view of each node — what the cluster tests and bench/ read. The
// process-wide router counters are on /metrics only.
type RouterStats struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Workers       int               `json:"workers"`
	QueueDepth    int               `json:"queue_depth"`
	Queued        int64             `json:"queued"`
	Encoding      RouterEncoding    `json:"encoding"`
	Cache         readcache.Stats   `json:"cache"`
	Nodes         []RouterNodeStats `json:"nodes"`
}

// Stats snapshots the router's state.
func (ro *Router) Stats() RouterStats {
	tier := ro.Config()
	st := RouterStats{
		UptimeSeconds: ro.Uptime().Seconds(),
		Workers:       tier.Workers,
		QueueDepth:    tier.QueueDepth,
		Queued:        ro.Gate().Queued(),
		Encoding:      ro.encodingStats(),
		Cache:         ro.cache.Stats(),
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
