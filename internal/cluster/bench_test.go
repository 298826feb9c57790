package cluster

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"testing"

	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/workloads"
)

// BenchmarkRingOwners is the route hot path: one consistent-hash lookup
// plus the replica walk. Gated at 0 allocs/op in scripts/bench.sh — the
// router resolves owners for every key of every request.
func BenchmarkRingOwners(b *testing.B) {
	r := NewRing(testTopology(16, 128))
	keys := testKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		p, rep := r.Owners(keys[i&4095])
		sink += p + rep
	}
	benchSink = sink
}

// BenchmarkRouterPlanMget is the batch-plan hot path: group a 64-key
// mget by preferred owner using the pooled scratch. Gated at 0
// allocs/op — fan-out bookkeeping must not add allocation pressure on
// top of the unavoidable network I/O.
func BenchmarkRouterPlanMget(b *testing.B) {
	topo := testTopology(8, 128)
	for i := range topo.Nodes {
		topo.Nodes[i].Addr = fmt.Sprintf("127.0.0.1:%d", 10000+i)
	}
	ro, err := New(Config{Topology: topo, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer ro.Close()
	keys := testKeys(64)
	key := func(i int) string { return keys[i] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := getPlan(len(ro.nodes))
		ro.planRead(pl, len(keys), key)
		benchSink += len(pl.touched)
		putPlan(pl)
	}
}

// batch8 frames an mput of 8 keys x 64 KiB of heat-map values, as a
// client does, and the matching mget.
func batch8(tb testing.TB) (mput, mget []byte, rawBytes int64) {
	mput, mget = []byte(server.PutRequestOpen), []byte(`{"keys":[`)
	for k := 0; k < 8; k++ {
		if k > 0 {
			mput, mget = append(mput, ','), append(mget, ',')
		}
		vals, err := workloads.GenFloat32("heat", 16384, uint64(k+1))
		if err != nil {
			tb.Fatal(err)
		}
		raw := f32le(vals...)
		rawBytes += int64(len(raw))
		mput = append(mput, fmt.Sprintf(`{"key":"bench-%04d","data":"`, k)...)
		mput = base64.StdEncoding.AppendEncode(mput, raw)
		mput = append(mput, `"}`...)
		mget = append(mget, fmt.Sprintf(`"bench-%04d"`, k)...)
	}
	return append(mput, server.BatchClose...), append(mget, server.BatchClose...), rawBytes
}

// benchPost times b.N posts of body over the loopback listener; MB/s is
// raw value bytes moved, and the core count the tiers shared with the
// client rides along.
func benchPost(b *testing.B, url string, body []byte, rawBytes int64) {
	b.SetBytes(rawBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || n < 64 {
			b.Fatalf("status %d, %d bytes, %v", resp.StatusCode, n, err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkRouterMput8 / Mget8 drive the router's batch endpoints end to
// end — router and 3 shards, replication 2, every hop a real loopback
// listener (ROADMAP item 1(a)).
func BenchmarkRouterMput8(b *testing.B) {
	tc := newTestCluster(b, 3, Config{})
	mput, _, raw := batch8(b)
	benchPost(b, tc.router.URL+"/v1/store/mput", mput, raw)
}

func BenchmarkRouterMget8(b *testing.B) {
	tc := newTestCluster(b, 3, Config{})
	mput, mget, raw := batch8(b)
	resp, err := http.Post(tc.router.URL+"/v1/store/mput", "application/json", bytes.NewReader(mput))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("seeding: status %d", resp.StatusCode)
	}
	benchPost(b, tc.router.URL+"/v1/store/mget", mget, raw)
}

// BenchmarkRouterGetHotCacheOff / CacheOn price the router's response
// cache on a hot read: single-key gets through the router over 3 shards
// on avrd's default store config (64 MiB line cache, prefetch on),
// replication 2, keys drawn Zipf(1.1) from 64 keys of 16 Ki fp32 heat
// values after every key has been read once. The pair differs only in
// the router's cache budget; with it on, the warm-up leaves every key's
// response resident.
func BenchmarkRouterGetHotCacheOff(b *testing.B) { benchRouterGetHot(b, 0) }
func BenchmarkRouterGetHotCacheOn(b *testing.B)  { benchRouterGetHot(b, 64<<20) }

func benchRouterGetHot(b *testing.B, cacheBytes int64) {
	const keys, n = 64, 16384
	shard := store.Config{CacheBytes: 64 << 20, Prefetch: true}
	tc := newTestClusterAt(b, []store.Config{shard, shard, shard}, Config{CacheBytes: cacheBytes})
	get := func(url string) {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		got, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || got != 4*n {
			b.Fatalf("get: status %d, %d bytes, %v", resp.StatusCode, got, err)
		}
	}
	urls := make([]string, keys)
	for k := range urls {
		vals, err := workloads.GenFloat32("heat", n, uint64(k+1))
		if err != nil {
			b.Fatal(err)
		}
		key := fmt.Sprintf("hot-%04d", k)
		resp, err := http.Post(tc.router.URL+"/v1/store/put?key="+key, "application/octet-stream", bytes.NewReader(f32le(vals...)))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("put %s: status %d", key, resp.StatusCode)
		}
		urls[k] = tc.router.URL + "/v1/store/get?key=" + key
		get(urls[k])
	}
	if cacheBytes > 0 && tc.ro.cache.Stats().Lines != keys {
		b.Fatalf("router cache holds %d of %d keys after the warm-up", tc.ro.cache.Stats().Lines, keys)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, keys-1)
	b.SetBytes(4 * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(urls[zipf.Uint64()])
	}
}

// benchSink defeats dead-code elimination.
var benchSink int
