package cluster

import (
	"bytes"
	"sync/atomic"

	"avr/internal/obs"
)

// Router-side read cache: the router mount of internal/readcache. The
// resident unit is a complete /v1/store/get response body — the values
// the router rebuilt from a shard's container, as it answers them —
// keyed by store key and invalidated on every write the router itself
// proxies (put, mput, delete). A miss fills it from the values it has
// just rebuilt, as the store's miss fills from the frames it has just
// read (DESIGN.md §5.11): one shard GET a miss. Only complete answers (a
// shard's 200) are kept: a 206 torn-tail prefix must keep hitting the
// nodes, which know when the tail reappears.
//
// Consistency: the router has no store lock to order fills against
// writes, so inserts are guarded by per-key write generations (a fixed
// table of 256 hashed counters). A miss snapshots the key's generation
// before its read and skips the insert if any write bumped it meanwhile;
// write handlers bump before invalidating. A fill racing a write
// therefore either sees the new bytes or inserts nothing — hash
// collisions only ever cause extra skipped fills, never staleness.

// genTable is the per-key write-generation guard.
type genTable [256]atomic.Uint64

// cachedResp is one resident get response.
type cachedResp struct {
	body   []byte
	width  string
	values string
}

// slot hashes key to its generation counter (inline FNV-1a, no alloc).
func (g *genTable) slot(key string) *atomic.Uint64 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &g[h&0xFF]
}

func (g *genTable) bump(key string)        { g.slot(key).Add(1) }
func (g *genTable) load(key string) uint64 { return g.slot(key).Load() }

// fill keeps the complete answer a miss of key rebuilt — body, of width
// and values, read while the key's generation was gen — when no write has
// been proxied since and the cache admits it (readcache.Cache.Admit, the
// rule the store's misses follow too).
func (ro *Router) fill(key string, gen uint64, body []byte, width, values string) {
	if ro.writeGen.load(key) != gen {
		return
	}
	size := int64(len(key)) + int64(len(body)) + 128
	if !ro.cache.Admit(key, size) {
		return
	}
	ro.cache.Put(key, size, &cachedResp{
		body:   bytes.Clone(body), // the scratch goes back to the pool
		width:  width,
		values: values,
	}, false)
	// Re-check after the insert: a write that bumped between the first
	// check and the Put has already run its Invalidate (bump precedes
	// Invalidate), so our insert could have slipped in behind it. Either
	// we see the bump here and undo the insert, or the bump came after
	// this load — in which case its Invalidate is ordered after our Put
	// and removes the line itself. No interleaving leaves stale bytes.
	if ro.writeGen.load(key) != gen {
		ro.cache.Invalidate(key)
	}
}

// cachedGet returns key's resident response; nil on a miss and when
// there is no cache.
func (ro *Router) cachedGet(key string) *cachedResp {
	if ro.cache == nil {
		return nil
	}
	ent, ok := ro.cache.Get(key)
	if !ok {
		obs.CacheMisses.Add(1)
		return nil
	}
	obs.CacheHits.Add(1)
	return ent.Meta.(*cachedResp)
}

// invalidateKey drops key's resident response after a proxied write.
// The generation bump comes first so any in-flight fill that read the
// pre-write bytes refuses to insert them.
func (ro *Router) invalidateKey(key string) {
	if ro.cache == nil {
		return
	}
	ro.writeGen.bump(key)
	ro.cache.Invalidate(key)
}
