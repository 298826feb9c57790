// Package readcache is the serving tier's rendering of the paper's
// DBUF/PFE pair: an in-memory, byte-budgeted, sharded-LRU cache whose
// unit of residency is a key's *summary line* — the summary + outlier
// bitmap + packed outliers of its encoded frames — rather than the
// decoded vector (Touché's keep-it-compressed capacity argument applied
// at the service layer). A line costs about the key's stored bytes, so a
// fixed budget holds more hot keys than a decoded-value cache by the
// key's compression ratio: 16:1 only for the summary of an outlier-free
// AVR record, 1:1 for a key stored lossless (DESIGN.md §5.11). The cache
// is content-agnostic: entries carry an opaque Meta the owner
// reconstructs from on a hit (internal/store keeps pre-parsed summary
// slabs, internal/cluster keeps whole proxied responses).
//
// Demand population is the owner's: whoever misses has the data in hand
// a moment later and Puts the entry itself (the store builds the line
// from the frames its disk read just verified, the router keeps the reply
// it proxied; neither reads the key a second time). Whether a miss builds
// a line at all is Admit's call: a line that can never fit is never
// started, and under pressure only a key that has missed before displaces
// others. The fill queue is the prefetcher's alone: a confidence-gated
// stride prefetcher (prefetch.go) watches the key stream and pulls
// predicted next keys in ahead of the request through a bounded worker
// queue, falling through silently when wrong — the paper's PFE, with the
// LVA-style confidence gate. The queue singleflights per key, and when
// full drops the prediction silently.
//
// Staleness is the owner's problem by design: entries are immutable
// after Put, and owners validate a version captured in Meta against
// their source of truth before serving a hit (the store checks its index
// seq under the same read lock). Invalidate hooks exist as an efficiency
// measure, not a correctness one.
package readcache

import (
	"sync"
	"sync/atomic"

	"avr/internal/obs"
)

// Config sets up a cache.
type Config struct {
	// MaxBytes is the resident-byte budget across all shards
	// (required; New returns nil when it is non-positive, and a nil
	// *Cache is a valid no-op cache).
	MaxBytes int64
	// Load fills one predicted key: read the backing source and Put the
	// entry as prefetched (or not, on error). Called from fill workers
	// only, never from the request path. Setting it turns the stride
	// prefetcher on; a cache without it starts no goroutines.
	Load func(key string)
}

const (
	// numShards is the number of independently locked LRU shards.
	numShards = 16
	// fillWorkers is the number of background prefetch goroutines.
	fillWorkers = 2
	// fillQueue bounds the pending prefetches; predictions beyond it are
	// dropped, not queued.
	fillQueue = 256
	// missRing is how many refused misses a shard remembers (Admit).
	missRing = 8
)

// Entry is one resident line. Meta is immutable after Put; readers may
// hold the pointer past eviction (the LRU links are owned by the shard
// and never touched by readers).
type Entry struct {
	// Meta is the owner's reconstruction state for this key.
	Meta any
	// Size is the accounted resident size in bytes.
	Size int64

	key        string
	prev, next *Entry // shard LRU links, guarded by the shard mutex
	prefetched atomic.Bool
}

// ConsumePrefetched reports whether this entry was brought in by the
// prefetcher and has not served a hit yet; the flag is consumed, so the
// first validated hit (and only it) counts as prefetch-useful.
func (e *Entry) ConsumePrefetched() bool {
	return e.prefetched.Load() && e.prefetched.CompareAndSwap(true, false)
}

// shard is one independently locked LRU: a map plus an intrusive
// doubly-linked list threaded through the entries, most recent at head.
type shard struct {
	mu    sync.Mutex
	items map[string]*Entry
	head  *Entry // most recently used
	tail  *Entry // eviction candidate
	bytes int64
	max   int64
	// missed is a ring of the last refused misses, each slot a key hash
	// with bit 32 set, so that an empty slot matches no key.
	missed     [missRing]uint64
	missedNext int
}

// Cache is a sharded summary-line cache. A nil *Cache is a valid
// disabled cache: every method is a no-op and Get always misses.
type Cache struct {
	cfg    Config
	shards [numShards]shard
	closed atomic.Bool

	// The prefetcher, nil without Config.Load. pmu orders each send on
	// fills before Close's close of it, and guards pending: the keys
	// queued or filling (singleflight).
	pf      *strideTracker
	fills   chan string
	pending map[string]struct{}
	pmu     sync.Mutex
	wg      sync.WaitGroup
}

// New builds a cache, or returns nil (a valid no-op cache) when the
// byte budget is non-positive.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	c := &Cache{cfg: cfg}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*Entry)
		// Budget split evenly: per-shard budgets avoid a global byte
		// counter on the hit path, at the cost of slightly earlier
		// eviction for keys that happen to collide on a shard.
		c.shards[i].max = cfg.MaxBytes / numShards
	}
	if cfg.Load != nil {
		c.pf = newStrideTracker()
		c.fills = make(chan string, fillQueue)
		c.pending = make(map[string]struct{})
		for w := 0; w < fillWorkers; w++ {
			c.wg.Add(1)
			go c.fillWorker()
		}
	}
	return c
}

// Close stops the fill workers and gives back every resident line, so
// the occupancy gauges count open caches only; a prefetch queued before
// Close still runs, its Put dropped like any Put after Close.
func (c *Cache) Close() {
	if c == nil || !c.closed.CompareAndSwap(false, true) {
		return
	}
	if c.fills != nil {
		// Under pmu: requestFill checks closed and sends under it too, so
		// no send can come after this close.
		c.pmu.Lock()
		close(c.fills)
		c.pmu.Unlock()
		c.wg.Wait()
	}
	var lines, bytes int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		lines += int64(len(sh.items))
		bytes += sh.bytes
		clear(sh.items)
		sh.head, sh.tail, sh.bytes = nil, nil, 0
		sh.mu.Unlock()
	}
	obs.CacheResidentBytes.Add(-bytes)
	obs.CacheLines.Add(-lines)
}

// fnv1a hashes the key for shard selection without allocating.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h
}

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[fnv1a(key)%numShards]
}

// Get returns the resident entry for key, bumping its recency. The
// caller owns hit/miss accounting: only it can tell a validated hit
// from a stale line.
func (c *Cache) Get(key string) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.items[key]
	if ok && e != sh.head {
		sh.unlink(e)
		sh.pushFront(e)
	}
	sh.mu.Unlock()
	return e, ok
}

// Contains reports residency without bumping recency (prefetch dedup).
func (c *Cache) Contains(key string) bool {
	if c == nil {
		return false
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	_, ok := sh.items[key]
	sh.mu.Unlock()
	return ok
}

// MaxEntryBytes is the largest size Put admits (0 on a nil cache): an
// owner whose entry is bound to be larger need not build it.
func (c *Cache) MaxEntryBytes() int64 {
	if c == nil {
		return 0
	}
	return c.shards[0].max
}

// Admit reports whether a demand miss of key should build and Put its
// line, given an upper bound on the line's size — admission on shown
// reuse, the paper's rule that the PFE installs decompressed lines in
// the LLC only once enough of a block has been asked for. A line that
// can never fit (bound over the shard budget) is refused. One the shard
// has room for without evicting is admitted. Otherwise the shard
// remembers the last few keys it refused: a key among them is admitted,
// and forgotten, and any other key is refused and remembered — so under
// pressure a line displaces others only for a key that missed twice in
// a short while. A nil cache admits nothing.
func (c *Cache) Admit(key string, bound int64) bool {
	if c == nil {
		return false
	}
	h := fnv1a(key)
	sh := &c.shards[h%numShards]
	if bound > sh.max {
		return false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.bytes+bound <= sh.max {
		return true
	}
	slot := 1<<32 | uint64(h)
	for i, m := range sh.missed {
		if m == slot {
			sh.missed[i] = 0
			return true
		}
	}
	sh.missed[sh.missedNext] = slot
	sh.missedNext = (sh.missedNext + 1) % missRing
	return false
}

// Put inserts (or replaces) the entry for key and evicts from the
// shard's LRU tail until the shard is back under budget. A line larger
// than the whole shard budget (MaxEntryBytes) is not admitted — it would
// evict the entire shard to hold one key.
func (c *Cache) Put(key string, size int64, meta any, prefetched bool) {
	if c == nil {
		return
	}
	sh := c.shardFor(key)
	if size > sh.max {
		return
	}
	e := &Entry{Meta: meta, Size: size, key: key}
	e.prefetched.Store(prefetched)
	var freedLines, freedBytes int64
	sh.mu.Lock()
	// Checked under the shard lock, which Close takes after setting
	// closed: a Put either lands before Close empties the shard or not at
	// all.
	if c.closed.Load() {
		sh.mu.Unlock()
		return
	}
	if old, ok := sh.items[key]; ok {
		sh.unlink(old)
		delete(sh.items, key)
		sh.bytes -= old.Size
		freedLines++
		freedBytes += old.Size
	}
	sh.items[key] = e
	sh.pushFront(e)
	sh.bytes += size
	freedLines--
	freedBytes -= size
	evicted := int64(0)
	for sh.bytes > sh.max && sh.tail != nil {
		v := sh.tail
		sh.unlink(v)
		delete(sh.items, v.key)
		sh.bytes -= v.Size
		freedLines++
		freedBytes += v.Size
		evicted++
	}
	sh.mu.Unlock()
	obs.CacheResidentBytes.Add(-freedBytes)
	obs.CacheLines.Add(-freedLines)
	obs.CacheEvictions.Add(evicted)
}

// Invalidate drops key if resident.
func (c *Cache) Invalidate(key string) {
	if c == nil {
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.items[key]
	if ok {
		sh.unlink(e)
		delete(sh.items, key)
		sh.bytes -= e.Size
	}
	sh.mu.Unlock()
	if ok {
		obs.CacheResidentBytes.Add(-e.Size)
		obs.CacheLines.Add(-1)
	}
}

// Stats is a point-in-time snapshot of a cache's occupancy, the one the
// store (CacheSnapshot) and the router's /v1/stats report.
type Stats struct {
	Enabled       bool  `json:"enabled"`
	ResidentBytes int64 `json:"resident_bytes"`
	Lines         int   `json:"lines"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// Stats snapshots the resident bytes and lines against the budget (the
// zero Stats for a nil cache).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{Enabled: true, BudgetBytes: c.cfg.MaxBytes}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.ResidentBytes += sh.bytes
		st.Lines += len(sh.items)
		sh.mu.Unlock()
	}
	return st
}

// requestFill queues a prefetch of key. Non-blocking: the key
// singleflights (one fill per key in flight), and a full queue drops the
// prediction.
func (c *Cache) requestFill(key string) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.closed.Load() {
		return
	}
	if _, dup := c.pending[key]; dup {
		return
	}
	select {
	case c.fills <- key:
		c.pending[key] = struct{}{}
		obs.PrefetchIssued.Add(1)
	default:
	}
}

func (c *Cache) fillWorker() {
	defer c.wg.Done()
	for key := range c.fills {
		c.cfg.Load(key)
		c.pmu.Lock()
		delete(c.pending, key)
		c.pmu.Unlock()
	}
}

// Observe feeds one requested key to the stride prefetcher; predicted
// next keys not already resident are queued as prefetch fills. A no-op
// unless Config.Load is set.
func (c *Cache) Observe(key string) {
	if c == nil || c.pf == nil {
		return
	}
	c.pf.observe(c, key)
}

// ---- intrusive LRU list (shard mutex held) ----

func (sh *shard) pushFront(e *Entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
