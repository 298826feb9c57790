// Command avrrouter fronts a sharded avrd fleet: a consistent-hash
// ring (static JSON topology, no consensus) spreads store keys across
// the nodes, every key is written to two replicas, and reads are
// read-any — primary first, replica on error or timeout — which is
// safe because every stored value was encoded at the store's quantized
// t1, so the client's bound check holds whichever copy answers.
//
// Usage:
//
//	avrrouter -addr localhost:9090 -topology topology.json
//	curl -s -X PUT --data-binary @values.f32le 'localhost:9090/v1/store/put?key=temps'
//	curl -s 'localhost:9090/v1/store/get?key=temps' > approx.f32le
//	curl -s 'localhost:9090/v1/store/query' | jq .sum          # cluster-wide aggregate
//	curl -s localhost:9090/v1/stats | jq .nodes                # this router's view of each node
//	curl -s localhost:9090/metrics | grep '^avr_router_'       # fan-outs, retries, ejects, ...
//
// topology.json:
//
//	{"vnodes": 128, "nodes": [
//	  {"name": "node-a", "addr": "127.0.0.1:8081"},
//	  {"name": "node-b", "addr": "127.0.0.1:8082"},
//	  {"name": "node-c", "addr": "127.0.0.1:8083"}]}
//
// The router carries its own bounded admission (worker slots + queue,
// 429 with Retry-After when full — downstream 429s surface the fleet's
// max Retry-After, not the router's), probes every node's /readyz and
// ejects/readmits them from rotation, batches multi-key traffic via
// /v1/store/mput and /v1/store/mget grouped by owning shard, and
// exposes Prometheus metrics at /metrics plus request tracing with
// route/fanout stages.
package main

import (
	"errors"
	"flag"
	"time"

	"avr/internal/cliutil"
	"avr/internal/cluster"
)

func main() {
	d := cliutil.RegisterDaemon(flag.CommandLine, "localhost:9090")
	topoPath := flag.String("topology", "", "cluster topology JSON file (required)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "node /readyz polling cadence")
	cacheBytes := flag.Int64("cache-bytes", 0, "router-side response cache budget in bytes; 0 disables (nodes cache independently)")
	flag.Parse()

	cliutil.StartDebug(d.DebugAddr)

	if *topoPath == "" {
		cliutil.Fatal(errors.New("avrrouter: -topology is required"))
	}
	topo, err := cluster.LoadTopology(*topoPath)
	if err != nil {
		cliutil.Fatal(err)
	}

	ro, err := cluster.New(cluster.Config{
		Topology:      topo,
		TierConfig:    d.Frame(),
		ProbeInterval: *probeInterval,
		CacheBytes:    *cacheBytes,
	})
	if err != nil {
		cliutil.Fatal(err)
	}
	d.Run("avrrouter", ro, "nodes", len(topo.Nodes), "vnodes", topo.VNodes)
}
