package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"avr/internal/obs"
	"avr/internal/server"
	"avr/internal/store"
)

// liveBlocks reads a store's segment files as DESIGN.md §5 lays them out
// and returns, for every block of key's newest put, its encoding byte
// and data. (Frames carry a store-local sequence number, so two stores'
// frames of one put differ there and nowhere else.)
func liveBlocks(t *testing.T, st *store.Store, key string) map[uint32][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(st.Stats().Dir, "seg-*.avrseg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("segments of %s: %v, %v", st.Stats().Dir, names, err)
	}
	var newest uint64
	blocks := make(map[uint32][]byte)
	for _, name := range names {
		seg, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for off := 12; off+8 <= len(seg); {
			n := int(binary.LittleEndian.Uint32(seg[off:]))
			p := seg[off+8 : off+8+n]
			off += 8 + n
			seq, keyLen := binary.LittleEndian.Uint64(p[1:]), int(binary.LittleEndian.Uint16(p[9:]))
			if p[0] != 1 || string(p[11:11+keyLen]) != key {
				continue
			}
			if seq > newest {
				newest = seq
				clear(blocks)
			}
			rec := p[11+keyLen:]
			// block index | total | width | enc | count | t1 | data: keep
			// everything from the width on.
			blocks[binary.LittleEndian.Uint32(rec)] = rec[12:]
		}
	}
	return blocks
}

// TestReplicasHoldIdenticalBlocks: after a put and an mput through the
// router, both owners of every key hold the same blocks byte for byte —
// they were sent the same container — and the third node holds nothing.
func TestReplicasHoldIdenticalBlocks(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const vn = 3*store.BlockValues + 17
	encodes, puts := obs.StoreEncodes.Value(), obs.StorePuts.Value()
	var items []server.BatchPutItem
	var names []string
	for k := 0; k < 6; k++ {
		names = append(names, fmt.Sprintf("twin-%d", k))
		vals := testVals(k, vn)
		if k%3 == 2 { // a key the store keeps losslessly
			for i := range vals {
				vals[i] = float32(math.Sin(float64(i*i+k)) * 1e6)
			}
		}
		if k < 3 {
			if resp := tc.put(t, names[k], vals); resp.StatusCode != http.StatusOK || resp.Header.Get("X-AVR-Replicas") != "2" {
				t.Fatalf("put %s: status %d, replicas %q", names[k], resp.StatusCode, resp.Header.Get("X-AVR-Replicas"))
			}
			continue
		}
		items = append(items, server.BatchPutItem{Key: names[k], Data: f32le(vals...)})
	}
	var res server.BatchPutResult
	postJSON(t, tc.router.URL+"/v1/store/mput", mputBody(items...), &res)
	for _, r := range res.Results {
		if !r.OK || r.Replicas != 2 || r.Values != vn || r.Blocks != 4 {
			t.Fatalf("mput %s: %+v", r.Key, r)
		}
	}
	// Encode once: six keys stored twelve times out of six encodes, all
	// of them the router's (the tiers share this process's counters).
	if e, p := obs.StoreEncodes.Value()-encodes, obs.StorePuts.Value()-puts; e != 6 || p != 12 {
		t.Errorf("6 keys at replication 2 took %d encodes and %d store puts, want 6 and 12", e, p)
	}
	for _, key := range names {
		p, rep := tc.ro.ring.Owners(key)
		a, b := liveBlocks(t, tc.stores[p], key), liveBlocks(t, tc.stores[rep], key)
		if len(a) != 4 || len(b) != 4 {
			t.Fatalf("%s: %d and %d blocks on its owners, want 4", key, len(a), len(b))
		}
		for idx, blk := range a {
			if !bytes.Equal(blk, b[idx]) {
				t.Fatalf("%s block %d: the owners hold different bytes (%d and %d)", key, idx, len(blk), len(b[idx]))
			}
		}
		if other := 3 - p - rep; len(liveBlocks(t, tc.stores[other], key)) != 0 {
			t.Fatalf("%s: node %d is no owner and holds it", key, other)
		}
	}
}

// TestPutReplyLostAfterApply: the primary applies a put and its reply is
// lost on the way back; the leg is retried, the put is acknowledged on
// both replicas, and they hold the same blocks byte for byte.
func TestPutReplyLostAfterApply(t *testing.T) {
	tc := newTestCluster(t, 3, Config{retryBackoff: time.Millisecond})
	const key, vn = "lost-reply", 3*store.BlockValues + 5
	p, rep := tc.ro.ring.Owners(key)
	tc.faults.set(1, fault{kind: "drop", nodes: []int{p}, method: http.MethodPut, first: 1})
	puts := obs.StorePuts.Value()
	resp := tc.put(t, key, testVals(9, vn))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-AVR-Replicas") != "2" {
		t.Fatalf("put whose primary reply was lost: status %d, replicas %q, want 200 on 2", resp.StatusCode, resp.Header.Get("X-AVR-Replicas"))
	}
	if n := len(tc.faults.exchanges(func(ex exchange) bool { return ex.fault == "drop" })); n != 1 || obs.StorePuts.Value()-puts != 3 {
		t.Fatalf("%d replies lost and %d store puts, want 1 lost and 3 puts (the primary's twice)", n, obs.StorePuts.Value()-puts)
	}
	a, b := liveBlocks(t, tc.stores[p], key), liveBlocks(t, tc.stores[rep], key)
	if len(a) != 4 || !reflect.DeepEqual(a, b) {
		t.Fatalf("%d blocks on the primary, %d on the replica, want the same 4", len(a), len(b))
	}
}

// TestShardAtAnotherT1 misconfigures one shard of three: the router
// encodes at what the first node told it, the odd shard refuses every
// container with 409, and each key it co-owns is acknowledged with one
// replica, whose copy is within the bound. /v1/stats says what the
// router encodes at and who told it.
func TestShardAtAnotherT1(t *testing.T) {
	tc := newTestClusterAt(t, []store.Config{{}, {}, {T1: 1.0 / 8}}, Config{})
	tc.faults.set(1)
	const odd, vn = 2, 300
	var items []server.BatchPutItem
	for k := 0; k < 16; k++ {
		items = append(items, server.BatchPutItem{Key: fmt.Sprintf("odd-%d", k), Data: f32le(testVals(k, vn)...)})
	}
	wantReplicas := func(key string) int {
		if p, rep := tc.ro.ring.Owners(key); p == odd || rep == odd {
			return 1
		}
		return 2
	}
	var res server.BatchPutResult
	postJSON(t, tc.router.URL+"/v1/store/mput", mputBody(items[:8]...), &res)
	ones := 0
	for _, r := range res.Results {
		if !r.OK || r.Replicas != wantReplicas(r.Key) {
			t.Errorf("mput %s: %+v, want %d replicas", r.Key, r, wantReplicas(r.Key))
		}
		if r.Replicas == 1 {
			ones++
		}
	}
	puts409 := 0
	for k := 8; k < 16; k++ {
		key := items[k].Key
		resp := tc.put(t, key, testVals(k, vn))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-AVR-Replicas") != fmt.Sprint(wantReplicas(key)) {
			t.Errorf("put %s: status %d, replicas %q, want %d", key, resp.StatusCode,
				resp.Header.Get("X-AVR-Replicas"), wantReplicas(key))
		}
		if wantReplicas(key) == 1 {
			puts409++
		}
	}
	if ones == 0 || puts409 == 0 {
		t.Fatalf("no key of the batch (%d) or of the puts (%d) is co-owned by the odd shard: nothing tested", ones, puts409)
	}
	if got := len(tc.faults.exchanges(func(ex exchange) bool { return ex.node == odd && ex.status == http.StatusConflict })); got != puts409 {
		t.Errorf("the odd shard answered %d puts with 409, want %d", got, puts409)
	}
	if n := len(tc.stores[odd].Keys()); n != 0 {
		t.Errorf("the odd shard stored %d keys out of containers at another t1", n)
	}
	for k := range items {
		key := items[k].Key
		p, rep := tc.ro.ring.Owners(key)
		for _, owner := range []int{p, rep} {
			if owner == odd {
				continue
			}
			got, _, _, err := tc.stores[owner].GetTraced(key, nil)
			if err != nil {
				t.Fatalf("%s on node %d: %v", key, owner, err)
			}
			tc.checkVals(t, key, got, testVals(k, vn))
		}
	}
	enc := tc.ro.Stats().Encoding
	if enc.T1 != tc.stores[0].T1() || enc.LearnedFrom != "node-00" {
		t.Errorf("router stats say it encodes at %+v, want node-00's t1 %g", enc, tc.stores[0].T1())
	}
}

// TestRouterBeforeItsShards: a router that cannot reach a shard has
// nothing to encode at and says so like any all-legs-failed write; the
// first write after a shard is up learns from it and is stored.
func TestRouterBeforeItsShards(t *testing.T) {
	tc := newTestCluster(t, 3, Config{retryBackoff: 1})
	key := "early"
	owner, _ := tc.ro.ring.Owners(key)
	vals := testVals(7, 500)
	// A shard that has not started refuses connections.
	down := func(nodes ...int) { tc.faults.set(1, fault{kind: "partition", nodes: nodes}) }
	down(0, 1, 2)

	if resp := tc.put(t, key, vals); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("put with no shard up: status %d, want 502", resp.StatusCode)
	}
	if resp := postJSON(t, tc.router.URL+"/v1/store/mput",
		mputBody(server.BatchPutItem{Key: key, Data: f32le(vals...)}), nil); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("mput with no shard up: status %d, want 502", resp.StatusCode)
	}
	if enc := tc.ro.Stats().Encoding; enc != (RouterEncoding{}) {
		t.Fatalf("the router learned %+v from shards that were down", enc)
	}

	down(slices.DeleteFunc([]int{0, 1, 2}, func(i int) bool { return i == owner })...)
	resp := tc.put(t, key, vals)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-AVR-Replicas") != "1" {
		t.Fatalf("first put after a shard came up: status %d, replicas %q", resp.StatusCode, resp.Header.Get("X-AVR-Replicas"))
	}
	if enc := tc.ro.Stats().Encoding; enc.T1 != tc.t1 || enc.LearnedFrom != fmt.Sprintf("node-%02d", owner) {
		t.Fatalf("router stats say %+v, want t1 %g learned from node-%02d", enc, tc.t1, owner)
	}
	got, _, _, err := tc.stores[owner].GetTraced(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	tc.checkVals(t, key, got, vals)
}

// TestRouterEncodeSurface: the router reports its decode+encode time as
// the encode stage of its own span; it refuses containers from clients,
// per key in a batch and with 415 on a put; and a put it can see is
// malformed is a 400 of its own, with avrd's words.
func TestRouterEncodeSurface(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const stageEncode = "X-Avr-Stage-Encode"
	if resp := tc.put(t, "s-put", testVals(1, 2000)); resp.Header.Get(stageEncode) == "" {
		t.Errorf("put response carries no %s: %v", stageEncode, resp.Header)
	}
	container := containerOf(t, f32le(testVals(2, 100)...))
	var res server.BatchPutResult
	resp := postJSON(t, tc.router.URL+"/v1/store/mput", mputBody(
		server.BatchPutItem{Key: "s-raw", Data: f32le(testVals(2, 100)...)},
		server.BatchPutItem{Key: "s-enc", Encoded: true, Data: container},
	), &res)
	if resp.Header.Get(stageEncode) == "" {
		t.Errorf("mput response carries no %s: %v", stageEncode, resp.Header)
	}
	if len(res.Results) != 2 || !res.Results[0].OK || res.Results[0].Replicas != 2 ||
		res.Results[1].OK || !strings.Contains(res.Results[1].Error, "raw values") {
		t.Errorf("mput of a raw and an encoded item: %+v", res.Results)
	}

	do := func(contentType, query string, body []byte) (int, string) {
		req, _ := http.NewRequest(http.MethodPut, tc.router.URL+"/v1/store/put?"+query, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	if code, _ := do(server.ContainerType, "key=s-enc", container); code != http.StatusUnsupportedMediaType {
		t.Errorf("container put through the router: status %d, want 415", code)
	}
	if code, msg := do("application/octet-stream", "key=s-bad", []byte{1, 2, 3}); code != http.StatusBadRequest ||
		!strings.Contains(msg, "body length 3 not a positive multiple of 32-bit values") {
		t.Errorf("ragged put: %d %q", code, msg)
	}
	if code, msg := do("application/octet-stream", "key=s-bad&width=13", make([]byte, 8)); code != http.StatusBadRequest ||
		!strings.Contains(msg, `bad width "13"`) {
		t.Errorf("bad width: %d %q", code, msg)
	}
	for _, st := range tc.stores {
		for _, k := range st.Keys() {
			if k == "s-enc" || k == "s-bad" {
				t.Errorf("a refused put stored %q", k)
			}
		}
	}
	var stats RouterStats
	sresp, err := http.Get(tc.router.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil || stats.Encoding.T1 != tc.t1 || stats.Encoding.LearnedFrom == "" {
		t.Errorf("/v1/stats encoding %+v (%v), want t1 %g and a node name", stats.Encoding, err, tc.t1)
	}
}
