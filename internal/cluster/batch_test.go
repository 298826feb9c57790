package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avr/internal/obs"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/vec"
	"avr/internal/workloads"
)

// postJSON posts body and decodes a JSON reply into out (nil skips).
func postJSON(t testing.TB, url string, body []byte, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("post %s: reading reply: %v", url, err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("post %s: reply %q does not parse: %v", url, raw, err)
		}
	}
	return resp
}

func mputBody(items ...server.BatchPutItem) []byte {
	b, _ := json.Marshal(server.BatchPutRequest{Items: items})
	return b
}

func mgetBody(keys ...string) []byte {
	b, _ := json.Marshal(server.BatchGetRequest{Keys: keys})
	return b
}

// TestRouterBatchPartialFailureInPlace interleaves bad items with good
// ones: every result sits at its request position, failures carry their
// own error and successes are untouched by their neighbours.
func TestRouterBatchPartialFailureInPlace(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const vn = 40
	items := []server.BatchPutItem{
		{Key: "p-0", Data: f32le(testVals(0, vn)...)},
		{Key: "p-odd", Data: []byte{1, 2, 3}},
		{Key: "p-2", Data: f32le(testVals(2, vn)...)},
		{Key: "p-width", Width: 48, Data: f32le(testVals(3, vn)...)},
		{Key: "p-4", Width: 32, Data: f32le(testVals(4, vn)...)},
		{Key: "p-empty"},
	}
	var pres server.BatchPutResult
	if resp := postJSON(t, tc.router.URL+"/v1/store/mput", mputBody(items...), &pres); resp.StatusCode != http.StatusOK {
		t.Fatalf("mput status %d", resp.StatusCode)
	}
	if len(pres.Results) != len(items) {
		t.Fatalf("mput: %d results for %d items", len(pres.Results), len(items))
	}
	for i, r := range pres.Results {
		wantOK := i%2 == 0
		if r.Key != items[i].Key || r.OK != wantOK || (r.Error == "") == !wantOK {
			t.Errorf("mput result %d = %+v, want key %q ok=%v", i, r, items[i].Key, wantOK)
		}
		if wantOK && (r.Replicas != 2 || r.Values != vn) {
			t.Errorf("mput result %d = %+v, want %d values on 2 replicas", i, r, vn)
		}
	}

	keys := []string{"p-4", "absent-a", "p-0", "p-odd", "p-2", "absent-b"}
	var gres server.BatchGetResult
	if resp := postJSON(t, tc.router.URL+"/v1/store/mget", mgetBody(keys...), &gres); resp.StatusCode != http.StatusOK {
		t.Fatalf("mget status %d", resp.StatusCode)
	}
	if len(gres.Results) != len(keys) {
		t.Fatalf("mget: %d results for %d keys", len(gres.Results), len(keys))
	}
	for i, r := range gres.Results {
		if r.Key != keys[i] {
			t.Fatalf("mget result %d is %q, want %q: order not preserved", i, r.Key, keys[i])
		}
		if i%2 == 0 {
			if !r.OK || !r.Complete || r.Width != 32 {
				t.Fatalf("mget %s: %+v", r.Key, r)
			}
			var k int
			fmt.Sscanf(r.Key, "p-%d", &k)
			tc.checkVals(t, r.Key, leF32(r.Data), testVals(k, vn))
		} else if r.OK || !r.NotFound || r.Error == "" || len(r.Data) != 0 {
			t.Errorf("mget %s: %+v, want a not-found failure", r.Key, r)
		}
	}
}

// TestRouterMgetSecondRound removes keys from their preferred owner
// behind the router's back: the first round misses them, the second
// finds each on its other owner, and the reply is whole and in order.
func TestRouterMgetSecondRound(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const keys, vn = 12, 24
	var items []server.BatchPutItem
	var names []string
	for k := 0; k < keys; k++ {
		names = append(names, fmt.Sprintf("sr-%d", k))
		items = append(items, server.BatchPutItem{Key: names[k], Data: f32le(testVals(k, vn)...)})
	}
	if resp := postJSON(t, tc.router.URL+"/v1/store/mput", mputBody(items...), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("mput status %d", resp.StatusCode)
	}
	dropped := 0
	for k := 0; k < keys; k += 2 {
		first, _ := tc.ro.legs(names[k])
		if err := tc.stores[first].Delete(names[k]); err != nil {
			t.Fatalf("dropping %s from node %d: %v", names[k], first, err)
		}
		dropped++
	}
	before := obs.RouterFailovers.Value()
	var gres server.BatchGetResult
	if resp := postJSON(t, tc.router.URL+"/v1/store/mget", mgetBody(names...), &gres); resp.StatusCode != http.StatusOK {
		t.Fatalf("mget status %d", resp.StatusCode)
	}
	if len(gres.Results) != keys {
		t.Fatalf("mget: %d results for %d keys", len(gres.Results), keys)
	}
	for i, r := range gres.Results {
		if r.Key != names[i] || !r.OK || r.NotFound || r.Error != "" {
			t.Fatalf("mget result %d = {key %q ok %v not_found %v error %q}, want %q served by the other owner",
				i, r.Key, r.OK, r.NotFound, r.Error, names[i])
		}
		tc.checkVals(t, r.Key, leF32(r.Data), testVals(i, vn))
	}
	if got := obs.RouterFailovers.Value() - before; got != int64(dropped) {
		t.Errorf("failovers moved by %d, want one per dropped key (%d)", got, dropped)
	}
}

// fakeStats is the /v1/store/stats a scripted shard answers the router's
// encoder with: the store defaults.
const fakeStats = `{"t1":0.03125}`

// testEncoding is the encoding a router learns from fakeStats.
func testEncoding() *putEncoding {
	return &putEncoding{enc: store.NewEncoder(1.0 / 32), node: "test"}
}

// containerOf is the container the router ships for a raw fp32 payload.
func containerOf(t testing.TB, raw []byte) []byte {
	t.Helper()
	c, err := testEncoding().enc.AppendPut(nil, vec.Of32(nil).FromLE(raw))
	if err != nil {
		t.Fatalf("encoding %d bytes: %v", len(raw), err)
	}
	return c
}

// fakeFleet is a router over scripted shards.
func fakeFleet(t *testing.T, shards ...http.HandlerFunc) *httptest.Server {
	t.Helper()
	topo := Topology{VNodes: 16}
	for i, h := range shards {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		topo.Nodes = append(topo.Nodes, Node{Name: fmt.Sprintf("fake-%d", i), Addr: strings.TrimPrefix(ts.URL, "http://")})
	}
	ro, err := New(Config{Topology: topo, ProbeInterval: -1, retryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ro.Close)
	ts := httptest.NewServer(ro.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterBatchAllLegsShed: when every leg of a batch sheds, each node
// with its own Retry-After, the batch is a 429 carrying the largest
// Retry-After the fleet asked for.
func TestRouterBatchAllLegsShed(t *testing.T) {
	tc := shedFleet(t)
	var names []string
	var items []server.BatchPutItem
	for k := 0; k < 16; k++ { // enough keys to touch both nodes as first leg
		names = append(names, fmt.Sprintf("shed-%d", k))
		items = append(items, server.BatchPutItem{Key: names[k], Data: f32le(1, 2)})
	}
	for path, body := range map[string][]byte{
		"/v1/store/mput": mputBody(items...),
		"/v1/store/mget": mgetBody(names...),
	} {
		resp := postJSON(t, tc.router.URL+path, body, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s: status %d, want 429", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "9" {
			t.Errorf("%s: Retry-After %q, want the fleet's max 9", path, ra)
		}
	}
}

// garbleData damages the middle character of the base64 text of the n-th
// "data" payload of a batch body — among the whole 64-character groups,
// where a vector tier reads it — leaving valid JSON.
func garbleData(t *testing.T, body []byte, n int) []byte {
	t.Helper()
	at := 0
	for ; n >= 0; n-- {
		i := bytes.Index(body[at:], []byte(`"data":"`))
		if i < 0 {
			t.Fatalf("no payload %d to garble in %.80q", n, body)
		}
		at += i + len(`"data":"`)
	}
	end := bytes.IndexByte(body[at:], '"')
	if end < 256 {
		t.Fatalf("payload of %d characters is too short to have a vector body", end)
	}
	body[at+end/2] = '*'
	return body
}

// TestRouterBatchBadLegResponse: a leg that echoes the wrong key fails
// that key alone, a leg that answers with the wrong count fails every key
// it carried — "bad response" each time, per key, in place. Every mget
// leg asks for containers, and the values come back rebuilt. An mput
// payload that is not base64 fails its key alone, with the same words
// from either tier.
func TestRouterBatchBadLegResponse(t *testing.T) {
	var wrongCount atomic.Bool
	shard := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/store/stats" {
			io.WriteString(w, fakeStats)
			return
		}
		body, _ := io.ReadAll(r.Body)
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s leg Content-Type %q, want application/json", r.URL.Path, ct)
		}
		var reply any
		switch r.URL.Path {
		case "/v1/store/mget":
			var req server.BatchGetRequest
			if err := json.Unmarshal(body, &req); err != nil || !req.Encoded {
				t.Errorf("mget leg body %q (%v): want one asking for containers", body, err)
			}
			var res server.BatchGetResult
			for _, k := range req.Keys {
				out := server.BatchGetItemResult{Key: k, OK: true, Width: 32, Complete: true, Encoded: true, Data: containerOf(t, f32le(7))}
				if k == "liar" {
					out.Key = "someone-else"
				}
				res.Results = append(res.Results, out)
			}
			if wrongCount.Load() {
				res.Results = res.Results[1:]
			}
			reply = res
		case "/v1/store/mput":
			var req server.BatchPutRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("mput leg body %q: %v", body, err)
			}
			var res server.BatchPutResult
			for _, it := range req.Items {
				if !it.Encoded || !bytes.Equal(it.Data, containerOf(t, f32le(1, 2))) {
					t.Errorf("mput leg item %q carries encoded=%v %x, want the payload's container", it.Key, it.Encoded, it.Data)
				}
				out := server.BatchPutItemResult{Key: it.Key, OK: true, Values: 2, Blocks: 1}
				if it.Key == "liar" {
					out.Key = "someone-else"
				}
				res.Results = append(res.Results, out)
			}
			if wrongCount.Load() {
				res.Results = res.Results[1:]
			}
			reply = res
		}
		json.NewEncoder(w).Encode(reply)
	}
	ts := fakeFleet(t, shard) // one owner per key: no second round to mask the verdict

	names := []string{"a", "liar", "b"}
	var items []server.BatchPutItem
	for _, k := range names {
		items = append(items, server.BatchPutItem{Key: k, Data: f32le(1, 2)})
	}
	for _, all := range []bool{false, true} {
		wrongCount.Store(all)
		var gres server.BatchGetResult
		postJSON(t, ts.URL+"/v1/store/mget", mgetBody(names...), &gres)
		var pres server.BatchPutResult
		postJSON(t, ts.URL+"/v1/store/mput", mputBody(items...), &pres)
		if len(gres.Results) != len(names) || len(pres.Results) != len(names) {
			t.Fatalf("wrongCount=%v: %d mget and %d mput results for %d keys",
				all, len(gres.Results), len(pres.Results), len(names))
		}
		for i, k := range names {
			bad := all || k == "liar"
			g, p := gres.Results[i], pres.Results[i]
			if g.Key != k || p.Key != k {
				t.Errorf("wrongCount=%v result %d: keys %q/%q, want %q", all, i, g.Key, p.Key, k)
			}
			if g.OK == bad || strings.Contains(g.Error, "bad mget response") != bad {
				t.Errorf("wrongCount=%v mget %q: ok=%v error=%q, want bad=%v", all, k, g.OK, g.Error, bad)
			}
			if p.OK == bad || strings.Contains(p.Error, "bad mput response") != bad {
				t.Errorf("wrongCount=%v mput %q: ok=%v error=%q, want bad=%v", all, k, p.OK, p.Error, bad)
			}
			if !bad && (g.Encoded || !bytes.Equal(g.Data, f32le(7))) {
				t.Errorf("wrongCount=%v mget %q: encoded=%v data %x, want the values of the shard's container", all, k, g.Encoded, g.Data)
			}
		}
	}

	// The same damage in a request, against real shards: through the
	// router, which decodes a payload to encode it, and at a shard.
	tc := newTestCluster(t, 2, Config{})
	payload := bytes.Repeat(f32le(1, 2), 8<<10)
	for tier, url := range map[string]string{"router": tc.router.URL, "avrd": tc.nodes[0].URL} {
		keys := []string{tier + "-a", tier + "-garbled", tier + "-b"}
		var items []server.BatchPutItem
		for _, k := range keys {
			items = append(items, server.BatchPutItem{Key: k, Data: payload})
		}
		var pres server.BatchPutResult
		postJSON(t, url+"/v1/store/mput", garbleData(t, mputBody(items...), 1), &pres)
		var back server.BatchGetResult
		postJSON(t, url+"/v1/store/mget", mgetBody(keys...), &back)
		if len(pres.Results) != 3 || len(back.Results) != 3 {
			t.Fatalf("%s: %d mput and %d mget results for 3 keys", tier, len(pres.Results), len(back.Results))
		}
		for i, k := range keys {
			bad := i == 1
			if p := pres.Results[i]; p.Key != k || p.OK == bad || strings.Contains(p.Error, "not valid base64") != bad {
				t.Errorf("%s mput %q: key %q ok=%v error=%q, want bad=%v", tier, k, p.Key, p.OK, p.Error, bad)
			}
			if g := back.Results[i]; g.OK == bad || g.NotFound != bad || (len(g.Data) == len(payload)) == bad {
				t.Errorf("%s mget %q: ok=%v not_found=%v %d bytes, want stored=%v", tier, k, g.OK, g.NotFound, len(g.Data), !bad)
			}
		}
	}
}

// TestRouterCorruptReplies: a replica whose answer for a key is not a
// container — raw values, one byte short, missing its first byte or, in a
// batch, text that is not base64 — has given that key a bad response: the
// key fails over to its other replica, on a get as in a batch, and comes
// back whole.
func TestRouterCorruptReplies(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	const bad = 0
	var keys []string
	var vals [][]float32
	want := map[string][]byte{}
	firstBad := 0
	for k := 0; k < 16; k++ {
		v, err := workloads.GenFloat32("heat", 4096, uint64(k+1))
		if err != nil {
			t.Fatal(err)
		}
		keys, vals = append(keys, fmt.Sprintf("c-%d", k)), append(vals, v)
		tc.put(t, keys[k], v)
		_, want[keys[k]] = get(t, tc.router.URL+"/v1/store/get?key="+keys[k])
		if first, _ := tc.ro.legs(keys[k]); first == bad {
			firstBad++
		}
	}
	if firstBad == 0 {
		t.Fatal("no key reads from the bad replica first: nothing tested")
	}
	for _, kind := range []string{"raw", "truncate", "garble"} {
		t.Run(kind, func(t *testing.T) {
			tc.faults.set(1, fault{kind: kind, nodes: []int{bad}})
			before := obs.RouterFailovers.Value()
			var gres server.BatchGetResult
			postJSON(t, tc.router.URL+"/v1/store/mget", mgetBody(keys...), &gres)
			if len(gres.Results) != len(keys) {
				t.Fatalf("mget over a bad replica: %d results for %d keys", len(gres.Results), len(keys))
			}
			for i, g := range gres.Results {
				if g.Key != keys[i] || !g.OK || !bytes.Equal(g.Data, want[g.Key]) {
					t.Errorf("mget %q over a bad replica: ok=%v error=%q, want the good replica's values", keys[i], g.OK, g.Error)
				}
			}
			for _, k := range keys {
				if resp, raw := get(t, tc.router.URL+"/v1/store/get?key="+k); resp.StatusCode != http.StatusOK || !bytes.Equal(raw, want[k]) {
					t.Errorf("get %q over a bad replica: status %d, want the good replica's values", k, resp.StatusCode)
				}
			}
			if got := obs.RouterFailovers.Value() - before; got != int64(2*firstBad) {
				t.Errorf("%d failovers, want one for each of the %d reads the bad replica answered", got, 2*firstBad)
			}
		})
	}

	// Expected to fail — ROADMAP item 3, hole 7: the hop carries no
	// checksum, so a container with one bit flipped that still decodes is
	// served with a 200, values outside t1 and all. This asserts today's
	// behaviour; once no such value is served the hole is closed, and the
	// assertion flips to "none is".
	t.Run("flip", func(t *testing.T) {
		tc.faults.set(1, fault{kind: "flip", path: "/v1/store/get"})
		gets, wrong := 0, 0
		for round := 0; round < 4; round++ {
			for k, key := range keys {
				resp, raw := get(t, tc.router.URL+"/v1/store/get?key="+key)
				if resp.StatusCode != http.StatusOK {
					continue
				}
				gets++
				for i, v := range leF32(raw) {
					if w := float64(vals[k][i]); math.Abs(float64(v)-w) > tc.t1*math.Abs(w)*(1+1e-9)+1e-12 {
						wrong++
						break
					}
				}
			}
		}
		if wrong == 0 {
			t.Fatalf("no flipped container was served out of bound in %d gets: item 3's hole 7 looks closed — make this sub-test assert that none is", gets)
		}
		t.Logf("item 3, hole 7 (expected): %d of %d gets served a flipped container's values outside t1", wrong, gets)
	})
}

// TestRouterPooledBufferHammer is the -race load beside the two
// deterministic lifetime tests below: puts, gets, batched puts and
// batched gets at overlapping keys through a router with its GET cache
// on, while one node answers a seeded third of the writes with an
// immediate 503, the body unread, so legs are retried from the same
// pooled buffer. Every value read back must be a version some writer gave that
// very key: bytes of another request showing up in a body, a leg or a
// cached reply mean a buffer went back to the pool while still
// referenced.
func TestRouterPooledBufferHammer(t *testing.T) {
	tc := newTestCluster(t, 3, Config{
		CacheBytes:   4 << 20,
		retryBackoff: time.Millisecond,
	})
	flaky := func(method string) fault {
		return fault{kind: "reply", nodes: []int{0}, method: method, rate: 1.0 / 3, status: http.StatusServiceUnavailable}
	}
	tc.faults.set(1, flaky(http.MethodPut), flaky(http.MethodPost))

	const (
		keys, vn = 12, 4096 // 16 KiB a key: bodies span many socket writes
		versions = 1 << 10
		writers  = 4
		rounds   = 30
	)
	name := func(k int) string { return fmt.Sprintf("hammer-%02d", k) }
	// A key's values start at 2^20*(k+1) + version: the vector names its
	// key and version, and neighbouring keys cannot be confused within t1.
	vals := func(k, ver int) []float32 {
		out := make([]float32, vn)
		for i := range out {
			out[i] = float32((k+1)<<20 + ver)
		}
		return out
	}
	check := func(k int, raw []byte, from string) {
		got := leF32(raw)
		if len(got) != vn {
			t.Errorf("%s %s: %d values, want %d", from, name(k), len(got), vn)
			return
		}
		lo, hi := float64((k+1)<<20), float64((k+1)<<20+versions)
		for i, v := range got {
			if f := float64(v); f < lo*(1-tc.t1) || f > hi*(1+tc.t1) {
				t.Errorf("%s %s value %d = %g: not a version of this key", from, name(k), i, v)
				return
			}
		}
	}
	for k := 0; k < keys; k++ {
		tc.put(t, name(k), vals(k, 0))
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				ver := 1 + (g*rounds+round)%(versions-1)
				switch (g + round) % 4 {
				case 0: // batched put of four neighbours
					var items []server.BatchPutItem
					for j := 0; j < 4; j++ {
						k := (g*3 + round + j) % keys
						items = append(items, server.BatchPutItem{Key: name(k), Data: f32le(vals(k, ver)...)})
					}
					var res server.BatchPutResult
					resp := postJSON(t, tc.router.URL+"/v1/store/mput", mputBody(items...), &res)
					if resp.StatusCode != http.StatusOK || len(res.Results) != len(items) {
						t.Errorf("mput: status %d, %d results", resp.StatusCode, len(res.Results))
						continue
					}
					for j, r := range res.Results {
						if r.Key != items[j].Key || !r.OK {
							t.Errorf("mput %s: %+v", items[j].Key, r)
						}
					}
				case 1: // single put
					k := (g + round) % keys
					if resp := tc.put(t, name(k), vals(k, ver)); resp.StatusCode != http.StatusOK {
						t.Errorf("put %s: status %d", name(k), resp.StatusCode)
					}
				case 2: // batched get of everything
					var names []string
					for k := 0; k < keys; k++ {
						names = append(names, name(k))
					}
					var res server.BatchGetResult
					resp := postJSON(t, tc.router.URL+"/v1/store/mget", mgetBody(names...), &res)
					if resp.StatusCode != http.StatusOK || len(res.Results) != keys {
						t.Errorf("mget: status %d, %d results", resp.StatusCode, len(res.Results))
						continue
					}
					for k, r := range res.Results {
						if r.Key != name(k) || !r.OK {
							t.Errorf("mget %s: key %q ok=%v error=%q", name(k), r.Key, r.OK, r.Error)
							continue
						}
						check(k, r.Data, "mget")
					}
				case 3: // single gets, twice over so the router cache fills and hits
					for pass := 0; pass < 2; pass++ {
						for k := g % 3; k < keys; k += 3 {
							resp, err := http.Get(tc.router.URL + "/v1/store/get?key=" + name(k))
							if err != nil {
								t.Errorf("get %s: %v", name(k), err)
								continue
							}
							raw, _ := io.ReadAll(resp.Body)
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								t.Errorf("get %s: status %d", name(k), resp.StatusCode)
								continue
							}
							check(k, raw, "get/"+resp.Header.Get("X-AVR-Cache"))
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(tc.faults.exchanges(func(ex exchange) bool { return ex.fault == "reply" })); n < 3 {
		t.Fatalf("only %d writes to the flaky node were answered 503", n)
	}
}

// keyPayload is 4 KiB only key's body could hold.
func keyPayload(key string) []byte {
	out := make([]byte, 4096)
	for i := range out {
		out[i] = key[i%len(key)] + byte(i/len(key))
	}
	return out
}

// TestLegBodiesOutliveTheRoundTrip: a leg body the transport still holds
// — a put's container, shared by its two legs, or an mput leg's batch of
// containers — must keep its bytes however many later requests have gone
// through the buffer pool since: the pooled buffer may only be recycled
// once the transport has closed every body reading it. The transport is
// at its legal worst: every write leg is answered 503 at once, its body
// kept unread and unclosed until the test asks for it — what net/http's
// transport does for a moment whenever a node answers before reading, or
// a leg's deadline passes mid-write.
func TestLegBodiesOutliveTheRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 2, Config{retryBackoff: time.Millisecond})
	tc.ro.encoding.Store(testEncoding()) // what containerOf encodes at
	straggle := func(method string) fault {
		return fault{kind: "reply", method: method, status: http.StatusServiceUnavailable, hold: true}
	}
	tc.faults.set(1, straggle(http.MethodPut), straggle(http.MethodPost))

	send := func(method, path, trace string, body []byte) {
		req, _ := http.NewRequest(method, tc.router.URL+path, bytes.NewReader(body))
		req.Header.Set("X-AVR-Trace", trace)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	const requests = 24
	for id := 0; id < requests; id++ {
		trace := fmt.Sprintf("r%02d", id)
		send(http.MethodPut, "/v1/store/put?key="+trace+"-put", trace, keyPayload(trace+"-put"))
		var items []server.BatchPutItem
		for j := 0; j < 4; j++ {
			key := fmt.Sprintf("%s-k%d", trace, j)
			items = append(items, server.BatchPutItem{Key: key, Data: keyPayload(key)})
		}
		send(http.MethodPost, "/v1/store/mput", trace, mputBody(items...))
	}

	// Every handler has returned; only now does the transport read.
	held := tc.faults.exchanges(func(ex exchange) bool { return ex.held != nil })
	if len(held) < 4*requests {
		t.Fatalf("transport holds %d bodies, want at least two legs each for %d puts and mputs", len(held), requests)
	}
	for _, h := range held {
		raw, err := io.ReadAll(h.held)
		h.held.Close()
		if err != nil {
			t.Fatalf("%s %s: reading the held body: %v", h.trace, h.path, err)
		}
		switch h.path {
		case "/v1/store/put":
			// Both legs of a put read the one container buffer.
			if !bytes.Equal(raw, containerOf(t, keyPayload(h.trace+"-put"))) {
				t.Fatalf("%s put leg: the held body is no longer this request's container", h.trace)
			}
		case "/v1/store/mput":
			var req server.BatchPutRequest
			if err := json.Unmarshal(raw, &req); err != nil || len(req.Items) == 0 {
				t.Fatalf("%s mput leg: held body does not parse (%v): %.80q", h.trace, err, raw)
			}
			for _, it := range req.Items {
				if !strings.HasPrefix(it.Key, h.trace+"-") || !it.Encoded || !bytes.Equal(it.Data, containerOf(t, keyPayload(it.Key))) {
					t.Fatalf("%s mput leg: held body carries item %q of another request or payload", h.trace, it.Key)
				}
			}
		}
	}
}

// TestRouterCacheKeepsItsOwnBytes: a cached GET reply must not change
// under later traffic — the cache keeps a copy, not the pooled buffer
// the reply was read into.
func TestRouterCacheKeepsItsOwnBytes(t *testing.T) {
	tc := newTestCluster(t, 3, Config{CacheBytes: 16 << 20})
	const vn = 512
	get := func(key string) (string, []byte) {
		t.Helper()
		resp, err := http.Get(tc.router.URL + "/v1/store/get?key=" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get %s: status %d", key, resp.StatusCode)
		}
		return resp.Header.Get("X-AVR-Cache"), raw
	}
	var names []string
	for k := 0; k < 8; k++ {
		names = append(names, fmt.Sprintf("ck-%d", k))
		tc.put(t, names[k], testVals(100*k, vn))
	}
	_, cold := get(names[0])
	// Other keys' replies now go through the pool the fill read into.
	for round := 0; round < 8; round++ {
		postJSON(t, tc.router.URL+"/v1/store/mget", mgetBody(names[1:]...), nil)
		for _, k := range names[1:] {
			get(k)
		}
	}
	src, again := get(names[0])
	if src != "hit" || !bytes.Equal(again, cold) {
		t.Fatalf("cached reply (%s) changed under later traffic", src)
	}
}
