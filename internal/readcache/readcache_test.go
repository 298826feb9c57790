package readcache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avr/internal/obs"
)

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	if e, ok := c.Get("k"); e != nil || ok {
		t.Fatalf("nil cache Get = %v, %v", e, ok)
	}
	if c.MaxEntryBytes() != 0 {
		t.Fatal("nil cache admits entries")
	}
	c.Put("k", 10, nil, false)
	c.Invalidate("k")
	c.Observe("k")
	c.Close()
	if c.Stats().ResidentBytes != 0 || c.Stats().Lines != 0 {
		t.Fatal("nil cache reports occupancy")
	}
	if New(Config{MaxBytes: 0}) != nil {
		t.Fatal("New with no budget should return the nil no-op cache")
	}
}

func TestPutGetInvalidate(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	defer c.Close()
	c.Put("a", 100, "meta-a", false)
	e, ok := c.Get("a")
	if !ok || e.Meta.(string) != "meta-a" {
		t.Fatalf("Get(a) = %v, %v", e, ok)
	}
	if e.ConsumePrefetched() {
		t.Fatal("demand-filled entry claims prefetched")
	}
	c.Put("p", 50, "meta-p", true)
	e, _ = c.Get("p")
	if !e.ConsumePrefetched() {
		t.Fatal("prefetched entry lost its flag")
	}
	if e.ConsumePrefetched() {
		t.Fatal("prefetched flag not consumed")
	}
	c.Invalidate("a")
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get(a) after Invalidate")
	}
	if got := c.Stats().ResidentBytes; got != 50 {
		t.Fatalf("Bytes = %d, want 50", got)
	}
	c.Invalidate("p")
	if c.Stats().ResidentBytes != 0 || c.Stats().Lines != 0 {
		t.Fatalf("after invalidating both: %d bytes, %d lines", c.Stats().ResidentBytes, c.Stats().Lines)
	}
}

// TestCloseRacingPuts: Close gives back every line whatever Puts race
// it — each lands before its shard is emptied or not at all — so the
// occupancy gauges end where they were before the cache opened.
func TestCloseRacingPuts(t *testing.T) {
	bytes0, lines0 := obs.CacheResidentBytes.Value(), obs.CacheLines.Value()
	c := New(Config{MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Put(fmt.Sprintf("k%d-%d", g, i%300), 100, nil, false)
			}
		}(g)
	}
	c.Close()
	wg.Wait()
	if b, l := obs.CacheResidentBytes.Value(), obs.CacheLines.Value(); b != bytes0 || l != lines0 {
		t.Fatalf("closed cache: gauges read %d bytes / %d lines, %d / %d before it opened", b, l, bytes0, lines0)
	}
}

// TestBudgetInvariant is the eviction-under-budget invariant: resident
// bytes never exceed MaxBytes, at any point under randomized
// insert/replace/invalidate traffic, and recently used keys survive
// eviction longer than cold ones.
func TestBudgetInvariant(t *testing.T) {
	const budget = 64 << 10
	c := New(Config{MaxBytes: budget})
	defer c.Close()
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		key := fmt.Sprintf("k-%d", rng.Intn(400))
		switch rng.Intn(10) {
		case 0:
			c.Invalidate(key)
		case 1:
			c.Get(key)
		default:
			c.Put(key, int64(16+rng.Intn(2048)), op, rng.Intn(8) == 0)
		}
		if got := c.Stats().ResidentBytes; got > budget {
			t.Fatalf("op %d: resident bytes %d exceed budget %d", op, got, budget)
		}
	}
	if c.Stats().Lines == 0 {
		t.Fatal("cache empty after sustained inserts")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 300 bytes a shard, and four keys of one shard so that their recency
	// is one order.
	c := New(Config{MaxBytes: 300 * numShards})
	defer c.Close()
	var keys []string
	for i := 0; len(keys) < 4; i++ {
		if k := fmt.Sprintf("k%d", i); c.shardFor(k) == &c.shards[0] {
			keys = append(keys, k)
		}
	}
	a, b, cc, d := keys[0], keys[1], keys[2], keys[3]
	c.Put(a, 100, nil, false)
	c.Put(b, 100, nil, false)
	c.Put(cc, 100, nil, false)
	c.Get(a) // bump a over b
	c.Put(d, 100, nil, false)
	if _, ok := c.Get(b); ok {
		t.Fatal("b (LRU) survived eviction")
	}
	for _, k := range []string{a, cc, d} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}
}

func TestOversizedLineNotAdmitted(t *testing.T) {
	c := New(Config{MaxBytes: 1024 * numShards})
	defer c.Close()
	if got := c.MaxEntryBytes(); got != 1024 {
		t.Fatalf("MaxEntryBytes = %d, want the 1024-byte shard budget", got)
	}
	c.Put("big", 1025, nil, false)
	if _, ok := c.Get("big"); ok {
		t.Fatal("over-budget line admitted")
	}
	c.Put("fits", 1024, nil, false)
	if _, ok := c.Get("fits"); !ok {
		t.Fatal("a line of exactly MaxEntryBytes refused")
	}
}

// TestAdmit walks the three cases of the admission rule on one shard: a
// line that can never fit is refused, one the shard has room for is
// admitted, and under pressure a key is admitted only on its second miss
// while it is still among the shard's last missRing refusals — once,
// after which it is forgotten.
func TestAdmit(t *testing.T) {
	var nilCache *Cache
	if nilCache.Admit("k", 1) {
		t.Fatal("a nil cache admitted a line")
	}
	c := New(Config{MaxBytes: 1000 * numShards})
	defer c.Close()
	var keys []string
	for i := 0; len(keys) < missRing+3; i++ {
		if k := fmt.Sprintf("k%d", i); c.shardFor(k) == &c.shards[0] {
			keys = append(keys, k)
		}
	}

	// Never fits: refused every time, repeats included.
	for i := 0; i < 3; i++ {
		if c.Admit(keys[0], 1001) {
			t.Fatalf("miss %d of a line over the shard budget admitted", i+1)
		}
	}
	// Room: admitted, up to exactly the budget.
	if !c.Admit(keys[0], 1000) {
		t.Fatal("a line the empty shard has room for refused")
	}
	c.Put(keys[0], 600, nil, false)
	if !c.Admit(keys[1], 400) {
		t.Fatal("a line that fills the shard to its budget refused")
	}

	// Pressure: 600 of 1000 bytes resident, a 500-byte line would evict.
	if c.Admit(keys[1], 500) {
		t.Fatal("first miss under pressure admitted")
	}
	if !c.Admit(keys[1], 500) {
		t.Fatal("repeat miss within the ring refused")
	}
	if c.Admit(keys[1], 500) {
		t.Fatal("a key stayed in the ring after it was admitted")
	}
	// The ring holds missRing keys: the oldest refusal is pushed out by
	// missRing newer ones, the newest survives them.
	for _, k := range keys[2 : 2+missRing] {
		if c.Admit(k, 500) {
			t.Fatalf("first miss of %s under pressure admitted", k)
		}
	}
	if c.Admit(keys[1], 500) {
		t.Fatal("a refusal pushed out of the ring still admitted")
	}
	if !c.Admit(keys[1+missRing], 500) {
		t.Fatal("the newest refusal was forgotten")
	}
	// Other shards are not under pressure.
	for i := 0; ; i++ {
		if k := fmt.Sprintf("other%d", i); c.shardFor(k) != &c.shards[0] {
			if !c.Admit(k, 500) {
				t.Fatal("pressure on one shard refused a line on another")
			}
			break
		}
	}
	if c.Stats().Lines != 1 || c.Stats().ResidentBytes != 600 {
		t.Fatalf("Admit changed residency: %d lines, %d bytes", c.Stats().Lines, c.Stats().ResidentBytes)
	}
}

func TestFillSingleflight(t *testing.T) {
	var mu sync.Mutex
	loads := map[string]int{}
	started := make(chan struct{})
	release := make(chan struct{})
	c := New(Config{
		MaxBytes: 1 << 20,
		Load: func(key string) {
			mu.Lock()
			loads[key]++
			mu.Unlock()
			if key == "slow" {
				close(started)
				<-release
			}
		},
	})
	defer c.Close()
	c.requestFill("slow")
	<-started
	// While "slow" is filling, repeated requests for it must coalesce.
	for i := 0; i < 10; i++ {
		c.requestFill("slow")
	}
	c.requestFill("other")
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := loads["other"] == 1
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if loads["slow"] != 1 {
		t.Fatalf("slow loaded %d times, want 1 (singleflight)", loads["slow"])
	}
	if loads["other"] != 1 {
		t.Fatalf("other loaded %d times, want 1", loads["other"])
	}
}

// waitLoads polls until want distinct keys have been loaded.
func waitLoads(t *testing.T, loaded *sync.Map, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		loaded.Range(func(any, any) bool { n++; return true })
		if n >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d loads", want)
}

func TestStridePrefetch(t *testing.T) {
	var loaded sync.Map
	issued := obs.PrefetchIssued.Value()
	c := New(Config{
		MaxBytes: 1 << 20,
		Load:     func(key string) { loaded.Store(key, true) },
	})
	defer c.Close()
	// Sequential scan with zero-padded keys: ts-00003, 00004, 00005 …
	// Two same-stride deltas arm the predictor on the third access.
	for i := 3; i <= 5; i++ {
		c.Observe(fmt.Sprintf("ts-%05d", i))
	}
	waitLoads(t, &loaded, 2)
	for _, want := range []string{"ts-00006", "ts-00007"} {
		if _, ok := loaded.Load(want); !ok {
			t.Fatalf("predicted key %s not prefetched", want)
		}
	}
	if n := obs.PrefetchIssued.Value() - issued; n < 2 {
		t.Fatalf("prefetches issued = %d, want >= 2", n)
	}
}

// TestCloseRacingPrefetch: Close may run while Observe is queueing
// prefetches. A prediction either goes on the queue before Close closes
// it or is dropped; none is sent on the closed queue (which panics).
func TestCloseRacingPrefetch(t *testing.T) {
	for round := 0; round < 200; round++ {
		c := New(Config{MaxBytes: 1 << 20, Load: func(string) {}})
		issued := obs.PrefetchIssued.Value()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					c.Observe(fmt.Sprintf("s%d-%d", g, i))
				}
			}(g)
		}
		for obs.PrefetchIssued.Value() == issued {
			runtime.Gosched() // Close once the predictions flow
		}
		c.Close()
		close(stop)
		wg.Wait()
	}
}

func TestStrideIgnoresNonSequential(t *testing.T) {
	var loads atomic.Int64
	c := New(Config{
		MaxBytes: 1 << 20,
		Load:     func(string) { loads.Add(1) },
	})
	defer c.Close()
	// Random jumps never build confidence; repeats are neutral.
	for _, k := range []string{"k-10", "k-3", "k-900", "k-900", "k-41", "k-7", "nodigits", ""} {
		c.Observe(k)
	}
	time.Sleep(50 * time.Millisecond)
	if n := loads.Load(); n != 0 {
		t.Fatalf("unconfident stream issued %d prefetches", n)
	}
}

func TestStrideNegativeAndWideStrides(t *testing.T) {
	var loaded sync.Map
	c := New(Config{
		MaxBytes: 1 << 20,
		Load:     func(key string) { loaded.Store(key, true) },
	})
	defer c.Close()
	// Descending scan, stride -2.
	for _, n := range []int{20, 18, 16} {
		c.Observe(fmt.Sprintf("rev-%d", n))
	}
	waitLoads(t, &loaded, 2)
	for _, want := range []string{"rev-14", "rev-12"} {
		if _, ok := loaded.Load(want); !ok {
			t.Fatalf("predicted key %s not prefetched", want)
		}
	}
}

func TestSplitKey(t *testing.T) {
	cases := []struct {
		key    string
		prefix string
		n      int64
		ok     bool
	}{
		{"ts-00041", "ts-", 41, true},
		{"k7", "k", 7, true},
		{"123", "", 123, true},
		{"nodigits", "", 0, false},
		{"", "", 0, false},
		{"k-99999999999999999999999", "", 0, false}, // > 18 digits
	}
	for _, tc := range cases {
		prefix, n, ok := splitKey(tc.key)
		if ok != tc.ok || (ok && (prefix != tc.prefix || n != tc.n)) {
			t.Fatalf("splitKey(%q) = %q, %d, %v; want %q, %d, %v",
				tc.key, prefix, n, ok, tc.prefix, tc.n, tc.ok)
		}
	}
	if got := pad(42, 5); got != "00042" {
		t.Fatalf("pad(42, 5) = %q", got)
	}
	if got := pad(123456, 3); got != "123456" {
		t.Fatalf("pad(123456, 3) = %q", got)
	}
}
