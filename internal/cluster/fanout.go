package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"

	"avr/internal/obs"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/trace"
)

// batchPlan is the pooled scratch for grouping a batch's keys by owning
// node. Building it is part of the route hot path and allocation-free
// in steady state (gated by BenchmarkRouterPlanMget): the pool hands
// back the same per-node index slices, grown once to the batch's high-
// water mark.
type batchPlan struct {
	// perNode[n] lists the request item indexes routed to node n.
	perNode [][]int32
	// touched lists the nodes with at least one item, in first-use order.
	touched []int
}

var planPool = sync.Pool{New: func() any { return new(batchPlan) }}

// getPlan checks a cleared plan sized for n nodes out of the pool.
func getPlan(n int) *batchPlan {
	pl := planPool.Get().(*batchPlan)
	if cap(pl.perNode) < n {
		old := pl.perNode
		pl.perNode = make([][]int32, n)
		copy(pl.perNode, old)
	}
	pl.perNode = pl.perNode[:n]
	for i := range pl.perNode {
		pl.perNode[i] = pl.perNode[i][:0]
	}
	pl.touched = pl.touched[:0]
	return pl
}

func putPlan(pl *batchPlan) { planPool.Put(pl) }

// add routes item i to node n.
func (pl *batchPlan) add(n, i int) {
	if len(pl.perNode[n]) == 0 {
		pl.touched = append(pl.touched, n)
	}
	pl.perNode[n] = append(pl.perNode[n], int32(i))
}

// planRead groups n keys by their preferred read leg (healthy owner
// first — see Router.legs).
func (ro *Router) planRead(pl *batchPlan, n int, key func(int) string) {
	for i := 0; i < n; i++ {
		first, _ := ro.legs(key(i))
		pl.add(first, i)
	}
}

// planWrite groups the keys, of n, that key reports as going out by
// every owner: replication-2 writes go to both the primary and the
// replica.
func (ro *Router) planWrite(pl *batchPlan, n int, key func(int) (string, bool)) {
	for i := 0; i < n; i++ {
		k, ok := key(i)
		if !ok {
			continue
		}
		p, rep := ro.ring.Owners(k)
		pl.add(p, i)
		if rep >= 0 {
			pl.add(rep, i)
		}
	}
}

// fanOut sends one leg to each of nodes concurrently, each under
// doLegRetry's policy, and returns their results in nodes' order. It is
// where every set of legs the router issues at once leaves it; readAny's
// failover is the one sequential path. body, when not nil, gives leg i's
// request body, which fanOut releases once that leg is over; the caller
// releases each result's reply.
func (ro *Router) fanOut(ctx context.Context, method, path, traceID string, nodes []int, body func(i int) *server.Buf) []legResult {
	results := make([]legResult, len(nodes))
	leg := func(i int) {
		var b *server.Buf
		if body != nil {
			b = body(i)
		}
		results[i] = ro.doLegRetry(ctx, method, nodes[i], path, "", traceID, b)
		b.Release()
	}
	var wg sync.WaitGroup
	for i := 1; i < len(nodes); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leg(i)
		}()
	}
	if len(nodes) > 0 {
		leg(0) // on the caller's goroutine
	}
	wg.Wait()
	return results
}

// handleMput serves POST /v1/store/mput on the router: every item is
// encoded once (encodeItems), the batch is split by owning shard, each
// key's container written to both its replicas, and the per-key results
// merged back in request order. A key succeeds when at least one replica
// took the write; Replicas reports how many did. An item the router
// itself refuses — a width or length avrd would refuse too — fails in
// place and goes nowhere.
func (ro *Router) handleMput(q *server.Req) {
	body, ok := q.Body()
	if !ok {
		return
	}
	sc := server.NewBatchScanner()
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
	sp, ctx, traceID := q.Span, q.R.Context(), inboundTraceID(q)

	pe, failed := ro.putEncoder(ctx, traceID)
	if pe == nil {
		ro.failAll(q, failed)
		return
	}
	res := server.BatchPutResult{Results: make([]server.BatchPutItemResult, len(sc.Items))}
	for i := range res.Results {
		res.Results[i].Key = string(sc.Items[i].Key)
	}
	et := sp.Begin()
	elems := encodeItems(pe.enc, sc.Items, res.Results)
	sp.End(trace.StageEncode, et)

	rt := sp.Begin()
	pl := getPlan(len(ro.nodes))
	ro.planWrite(pl, len(elems), func(i int) (string, bool) { return res.Results[i].Key, elems[i] != nil })
	sp.End(trace.StageRoute, rt)

	ft := sp.Begin()
	results := ro.fanOut(ctx, http.MethodPost, "/v1/store/mput", traceID, pl.touched, func(li int) *server.Buf {
		items := pl.perNode[pl.touched[li]]
		size := len(server.PutRequestOpen) + len(items) + len(server.BatchClose)
		for _, idx := range items {
			size += len(elems[idx].B)
		}
		b := server.GetBuf()
		b.B = append(slices.Grow(b.B, size), server.PutRequestOpen...)
		for j, idx := range items {
			if j > 0 {
				b.B = append(b.B, ',')
			}
			b.B = append(b.B, elems[idx].B...)
		}
		b.B = append(b.B, server.BatchClose...)
		return b
	})
	sp.End(trace.StageFanout, ft)
	for _, e := range elems {
		e.Release() // the leg bodies were copies
	}
	for i := range res.Results {
		ro.invalidateKey(res.Results[i].Key)
	}

	anyShed, anyLegOK := false, false
	for li, lr := range results {
		items, name := pl.perNode[pl.touched[li]], ro.nodes[pl.touched[li]].name
		// failKeys reports msg on every key of the leg no other leg has
		// answered for.
		failKeys := func(msg string) {
			for _, idx := range items {
				if out := &res.Results[idx]; !out.OK && out.Error == "" {
					out.Error = msg
				}
			}
		}
		if !lr.ok2xx() {
			if lr.status == http.StatusTooManyRequests {
				anyShed = true
			}
			failKeys(legErrString(lr, name))
			continue
		}
		anyLegOK = true
		var sub server.BatchPutResult
		err := json.Unmarshal(lr.body, &sub)
		lr.release()
		if err != nil || len(sub.Results) != len(items) {
			failKeys(name + ": bad mput response")
			continue
		}
		for j, idx := range items {
			out, in := &res.Results[idx], sub.Results[j]
			if in.Key != out.Key {
				in = server.BatchPutItemResult{Error: name + ": bad mput response"}
			}
			if !in.OK {
				if !out.OK && out.Error == "" {
					out.Error = in.Error
				}
				continue
			}
			out.Replicas++
			if !out.OK {
				out.OK = true
				out.Error = ""
				out.Values, out.Blocks, out.Ratio = in.Values, in.Blocks, in.Ratio
			}
		}
	}
	putPlan(pl)

	if !anyLegOK && anyShed {
		ro.failAll(q, results)
		return
	}
	q.ReplyJSON(http.StatusOK, res)
}

// mgetOut is one key's standing in a batched get: the values the router
// rebuilt from its shard's container, or the shard's or the router's own
// account of why there are none.
type mgetOut struct {
	vals     *encScratch // nil until a shard answered for the key with its container
	complete bool
	err      string // reported when vals is nil
	notFound bool
}

// handleMget serves POST /v1/store/mget on the router: keys are grouped
// by their preferred (healthy-first) owner, fetched in one leg per
// node, and any key that leg could not serve retries on its other
// replica in a second round — the batched form of read-any failover.
//
// Every leg asks for containers ("encoded": true). Each leg reply is
// scanned for its items, each item's container is rebuilt into pooled
// scratch — charged to StageDecode — and the response is every key's
// values, or its failure, emitted in request order. An item that is not
// a container, or does not decode, is its key's bad response, retried on
// the other replica like a failed leg. A client's own "encoded" is not
// heeded: the router answers values.
func (ro *Router) handleMget(q *server.Req) {
	body, ok := q.Body()
	if !ok {
		return
	}
	var req server.BatchGetRequest
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
	sp, ctx, traceID := q.Span, q.R.Context(), inboundTraceID(q)

	rt := sp.Begin()
	pl := getPlan(len(ro.nodes))
	ro.planRead(pl, len(req.Keys), func(i int) string { return req.Keys[i] })
	firstLeg := make([]int, len(req.Keys))
	for _, n := range pl.touched {
		for _, idx := range pl.perNode[n] {
			firstLeg[idx] = n
		}
	}
	sp.End(trace.StageRoute, rt)

	outs := make([]mgetOut, len(req.Keys))
	defer func() {
		for i := range outs {
			if outs[i].vals != nil {
				encScratchPool.Put(outs[i].vals)
			}
		}
	}()
	sc := server.NewBatchScanner()
	defer sc.Release()
	// Every leg's result, both rounds, for failAll: a 2xx reply's buffer
	// goes back as soon as its items are rebuilt.
	var replies []legResult

	// round sends one leg per node of pl, folds the replies into outs and
	// gives pl back. retry lists the item indexes still unresolved (leg
	// failed, bad item, per-key read error, or not-found — read-any means
	// a miss on one replica is not final).
	round := func(pl *batchPlan) (retry []int32, anyShed, anyOK bool) {
		defer putPlan(pl)
		ft := sp.Begin()
		results := ro.fanOut(ctx, http.MethodPost, "/v1/store/mget", traceID, pl.touched, func(li int) *server.Buf {
			b := server.GetBuf()
			b.B = append(b.B, server.GetRequestOpen...)
			for j, idx := range pl.perNode[pl.touched[li]] {
				if j > 0 {
					b.B = append(b.B, ',')
				}
				b.B = server.AppendJSONString(b.B, req.Keys[idx])
			}
			b.B = append(b.B, server.EncodedGetRequestClose...)
			return b
		})
		sp.End(trace.StageFanout, ft)
		dt := sp.Begin()
		defer sp.End(trace.StageDecode, dt)
		for li := range results {
			lr := &results[li]
			items, name := pl.perNode[pl.touched[li]], ro.nodes[pl.touched[li]].name
			fail := func(idx int32, msg string) {
				outs[idx].err = msg
				retry = append(retry, idx)
			}
			if !lr.ok2xx() {
				if lr.status == http.StatusTooManyRequests {
					anyShed = true
				}
				for _, idx := range items {
					fail(idx, legErrString(*lr, name))
				}
				continue
			}
			anyOK = true
			badResponse := name + ": bad mget response"
			if err := sc.ScanGetResult(lr.body); err != nil || len(sc.Items) != len(items) {
				for _, idx := range items {
					fail(idx, badResponse)
				}
			} else {
				for j, idx := range items {
					in := &sc.Items[j]
					switch {
					case string(in.Key) != req.Keys[idx]:
						fail(idx, badResponse)
					case !in.OK:
						outs[idx].notFound = in.NotFound
						fail(idx, string(in.Error))
					default:
						vs, err := rebuild(in)
						if err != nil {
							fail(idx, fmt.Sprintf("%s: %v", badResponse, err))
							continue
						}
						outs[idx] = mgetOut{vals: vs, complete: in.Complete}
					}
				}
			}
			lr.release()
			lr.body, lr.reply = nil, nil
		}
		replies = append(replies, results...)
		return retry, anyShed, anyOK
	}

	retry, anyShed, anyOK := round(pl)
	if len(retry) > 0 && ro.ring.Nodes() > 1 {
		// Second round on each unresolved key's other replica.
		obs.RouterFailovers.Add(int64(len(retry)))
		pl2 := getPlan(len(ro.nodes))
		for _, idx := range retry {
			p, rep := ro.ring.Owners(req.Keys[idx])
			other := p
			if p == firstLeg[idx] && rep >= 0 {
				other = rep
			}
			pl2.add(other, int(idx))
		}
		_, shed2, ok2 := round(pl2)
		anyShed = anyShed || shed2
		anyOK = anyOK || ok2
	}
	if !anyOK && anyShed {
		ro.failAll(q, replies)
		return
	}
	size := len(server.GetResultOpen) + len(server.BatchClose) + 1
	for i := range outs {
		size += len(req.Keys[i]) + len(outs[i].err) + 64
		if v := outs[i].vals; v != nil {
			size += base64.StdEncoding.EncodedLen(v.vals.Len() * v.vals.Width / 8)
		}
	}
	res := server.GetBuf()
	defer res.Release()
	res.B = append(slices.Grow(res.B, size), server.GetResultOpen...)
	for i := range outs {
		if i > 0 {
			res.B = append(res.B, ',')
		}
		if out := &outs[i]; out.vals != nil {
			v := out.vals.vals
			res.B = server.AppendGetResult(res.B, req.Keys[i], v.Width, out.complete, false, v.LE(out.vals.raw))
		} else {
			res.B = server.AppendGetFailure(res.B, req.Keys[i], out.err, out.notFound)
		}
	}
	res.B = append(res.B, server.BatchClose+"\n"...)
	q.Reply(http.StatusOK, "application/json", res.B)
}

// rebuild decodes one mget item's container into pooled scratch: the
// item must say it is one, and its width must be the container's.
func rebuild(in *server.WireItem) (*encScratch, error) {
	vs := encScratchPool.Get().(*encScratch)
	err := errNotContainer
	if in.Encoded {
		if vs.container, err = in.AppendData(vs.container[:0]); err == nil {
			if vs.vals, err = store.DecodeContainer(vs.vals, vs.container); err == nil && vs.vals.Width != in.Width {
				err = fmt.Errorf("fp%d values said to be fp%d", vs.vals.Width, in.Width)
			}
		}
	}
	if err != nil {
		encScratchPool.Put(vs)
		return nil, err
	}
	return vs, nil
}

// fanKeys unions the live key sets of every in-rotation node (all nodes
// when the prober has everything ejected — a wrong prober must not make
// the key space look empty). failed holds one result per node asked
// that gave no listing; when that is every node asked, there are no keys
// to report and the caller answers with failAll.
func (ro *Router) fanKeys(ctx context.Context, traceID string) (keys []string, nodesAsked int, failed []legResult) {
	idxs := make([]int, 0, len(ro.nodes))
	for i, nd := range ro.nodes {
		if nd.up.Load() {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		for i := range ro.nodes {
			idxs = append(idxs, i)
		}
	}
	results := ro.fanOut(ctx, http.MethodGet, "/v1/store/key", traceID, idxs, nil)

	seen := make(map[string]struct{})
	for _, lr := range results {
		if !lr.ok2xx() {
			failed = append(failed, lr)
			continue
		}
		var body struct {
			Keys []string `json:"keys"`
		}
		err := json.Unmarshal(lr.body, &body)
		lr.release()
		if err != nil {
			failed = append(failed, legResult{err: fmt.Errorf("bad key listing: %w", err)})
			continue
		}
		for _, k := range body.Keys {
			seen[k] = struct{}{}
		}
	}
	keys = make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, len(idxs), failed
}

// handleKeys serves GET /v1/store/key on the router: the union of every
// shard's key set — the iteration surface avrstore verify fans out
// over. Replicated keys appear once.
func (ro *Router) handleKeys(q *server.Req) {
	if !q.Admit() {
		return
	}
	ft := q.Span.Begin()
	keys, asked, failed := ro.fanKeys(q.R.Context(), inboundTraceID(q))
	q.Span.End(trace.StageFanout, ft)
	if len(failed) == asked {
		ro.failAll(q, failed)
		return
	}
	q.Header().Set("X-AVR-Keys", strconv.Itoa(len(keys)))
	q.Header().Set("X-AVR-Nodes", strconv.Itoa(asked))
	q.ReplyJSON(http.StatusOK, struct {
		Keys []string `json:"keys"`
	}{Keys: keys})
}
