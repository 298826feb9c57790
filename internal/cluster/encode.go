package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/vec"
)

// The router's write path encodes. A put arrives as raw values; the
// router turns it into the store's encoded blocks once (store.Encoder)
// and sends the same encoded-put container to every owner, which commits
// the blocks as they are (store.PutEncoded). The owners no longer each
// decode, convert and encode the same values, the legs carry ~1.3 bytes
// a value instead of base64's 5.3, and the replicas' frames are
// byte-identical because they are the same bytes.
//
// The threshold to encode at is the shards', not a router setting: the
// router reads it from the /v1/store/stats a shard already serves, on
// its first write, and again after the prober readmits a node (a node
// that comes back may have been reconfigured).
// A shard running at another t1 refuses the container with 409 and the
// key counts one replica fewer; /v1/stats says what the router encodes
// at and which node told it.

// putEncoding is what the router encodes writes at and who said so.
type putEncoding struct {
	enc  *store.Encoder
	node string
}

// putEncoder returns the encoder for writes, learning its t1 first if
// the router does not hold one: from the first node to answer
// /v1/store/stats, nodes in rotation before ejected ones. When none
// answers there is nothing to encode at — and no owner to write to — and
// the failed legs come back for the caller to report.
func (ro *Router) putEncoder(ctx context.Context, traceID string) (*putEncoding, []legResult) {
	if pe := ro.encoding.Load(); pe != nil {
		return pe, nil
	}
	ro.encMu.Lock()
	defer ro.encMu.Unlock()
	if pe := ro.encoding.Load(); pe != nil {
		return pe, nil
	}
	var failed []legResult
	for _, wantUp := range []bool{true, false} {
		for i, nd := range ro.nodes {
			if nd.up.Load() != wantUp {
				continue
			}
			lr := ro.doLeg(ctx, http.MethodGet, i, "/v1/store/stats", "", traceID, nil)
			if lr.ok2xx() {
				var st struct {
					T1 float64 `json:"t1"`
				}
				err := json.Unmarshal(lr.body, &st)
				lr.release()
				if err == nil && st.T1 > 0 {
					pe := &putEncoding{enc: store.NewEncoder(st.T1), node: nd.name}
					ro.encoding.Store(pe)
					return pe, nil
				}
				lr = legResult{err: fmt.Errorf("%s: store stats name no t1", nd.name)}
			}
			failed = append(failed, lr)
		}
	}
	return nil, failed
}

// forgetEncoding drops the learned t1, so the next write learns it
// again. Under the learner's lock: a fetch begun before the node that
// prompted this came back cannot install its answer afterwards.
func (ro *Router) forgetEncoding() {
	ro.encMu.Lock()
	ro.encoding.Store(nil)
	ro.encMu.Unlock()
}

// RouterEncoding is the write-path encoding in the router's /v1/stats:
// the t1 it encodes puts at and the node it learned it from — both zero
// until the first write.
type RouterEncoding struct {
	T1          float64 `json:"t1"`
	LearnedFrom string  `json:"learned_from"`
}

func (ro *Router) encodingStats() RouterEncoding {
	pe := ro.encoding.Load()
	if pe == nil {
		return RouterEncoding{}
	}
	return RouterEncoding{T1: pe.enc.T1(), LearnedFrom: pe.node}
}

// encScratch is a key's values as wire bytes and as floats, and its
// container: one encoding goroutine's, reused from key to key, or one
// read's, whose values the router rebuilt from a shard's container.
type encScratch struct {
	raw       []byte
	vals      vec.Vec
	container []byte
}

var encScratchPool = sync.Pool{New: func() any { return new(encScratch) }}

// errEncodedItem refuses a client's container: the router's part is to
// encode, and what it forwards it vouches for.
var errEncodedItem = errors.New("the router takes raw values, not encoded items")

// encodeItems decodes and encodes a scanned mput, once per item:
// elems[i] is item i's element for the leg bodies — its key and
// container, as avrd's mput takes it — in a pooled buffer the caller
// releases, or nil when the item is refused here, its error already in
// res[i]. Items are claimed by an atomic counter across up to GOMAXPROCS
// goroutines, the caller's among them.
func encodeItems(enc *store.Encoder, items []server.WireItem, res []server.BatchPutItemResult) []*server.Buf {
	elems := make([]*server.Buf, len(items))
	var next atomic.Int64
	work := func() {
		es := encScratchPool.Get().(*encScratch)
		defer encScratchPool.Put(es)
		for {
			i := int(next.Add(1) - 1)
			if i >= len(items) {
				return
			}
			it := &items[i]
			err := errEncodedItem
			if !it.Encoded {
				if es.raw, es.vals, err = it.Values(es.raw, es.vals); err == nil {
					es.container, err = enc.AppendPut(es.container[:0], es.vals)
				}
			}
			if err != nil {
				res[i].Error = err.Error()
				continue
			}
			b := server.GetBuf()
			b.B = server.AppendEncodedPutItem(b.B, res[i].Key, es.container)
			elems[i] = b
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(items)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return elems
}
