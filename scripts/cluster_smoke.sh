#!/usr/bin/env bash
# scripts/cluster_smoke.sh — end-to-end gate for the sharded tier:
# three avrd shards behind one avrrouter, replication 2, read-any. Each
# act is here because no `go test` reaches it:
#
#   1. pack a manifest through the router, verify through the router.
#      Kept: the only run of avrstore -addr against a router (every key
#      in the fanned-out listing, every value within the manifest t1).
#   2. kill -9 one shard mid-cluster-load. Kept: the only real process
#      death under load; avrload must see zero out-of-bound reads
#      (failovers are availability noise, one corrupt get fails).
#   3. with the shard still dead, verify the full manifest again. Kept:
#      every key must survive on its other replica after a real kill.
#   4. restart the shard, watch the prober eject and readmit it, load the
#      healed cluster. Kept: a dead process and a restart that recovers
#      its store, where TestProberEjectReadmit flips /readyz in process.
#   5. hot re-reads through the router's response cache. Kept: every
#      cached response bound-checked by a separate process, at a hit
#      rate of at least 0.9: a miss fills the cache from the reply it
#      proxied, so 16 hot keys x 8 connections miss at most 128 times.
#   6. the router's /metrics families. Kept: the router binary, not a
#      test server, exports them.
#
# Replaced by in-process tests: /healthz and /readyz and the exposition
# lint (TestFrameConformance, both tiers).
#
# A CI gate, not a benchmark: avrload verifies and measures nothing; the
# cluster's serving metrics are bench/'s cluster_batch workload.
#
# Usage: scripts/cluster_smoke.sh [duration] [concurrency]
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${1:-4s}"
CONC="${2:-8}"

TMP="$(mktemp -d)"
PIDS=()
cleanup() {
    for p in "${PIDS[@]}"; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/avrd" ./cmd/avrd
go build -o "$TMP/avrrouter" ./cmd/avrrouter
go build -o "$TMP/avrload" ./cmd/avrload
go build -o "$TMP/avrstore" ./cmd/avrstore

wait_addr() { # file
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "no address in $1"; exit 1
}

start_node() { # index
    "$TMP/avrd" -addr 127.0.0.1:0 -addr-file "$TMP/node$1.addr" \
        -store-dir "$TMP/store$1" &
    eval "NODE$1_PID=$!"
    PIDS+=("$!")
}

for i in 0 1 2; do start_node "$i"; done
for i in 0 1 2; do wait_addr "$TMP/node$i.addr"; done

cat > "$TMP/topology.json" <<EOF
{
  "vnodes": 64,
  "nodes": [
    {"name": "n0", "addr": "$(cat "$TMP/node0.addr")"},
    {"name": "n1", "addr": "$(cat "$TMP/node1.addr")"},
    {"name": "n2", "addr": "$(cat "$TMP/node2.addr")"}
  ]
}
EOF

"$TMP/avrrouter" -addr 127.0.0.1:0 -addr-file "$TMP/router.addr" \
    -topology "$TMP/topology.json" -probe-interval 200ms \
    -cache-bytes $((32<<20)) &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
wait_addr "$TMP/router.addr"
ROUTER="$(cat "$TMP/router.addr")"
echo "router up on $ROUTER over nodes $(cat "$TMP"/node{0,1,2}.addr | tr '\n' ' ')"

# --- Act 1: manifest pack + verify through the router -----------------
"$TMP/avrstore" pack -addr "$ROUTER" -manifest "$TMP/manifest.json" \
    -keys 24 -values 8000 -dist mixed-all
"$TMP/avrstore" verify -addr "$ROUTER" -manifest "$TMP/manifest.json"

# --- Act 2: kill -9 one shard under cluster load ----------------------
# avrload exits non-zero on a single out-of-bound read; shard-kill
# failures surface as errors/failovers, never as corruption.
"$TMP/avrload" -addr "$ROUTER" -mode cluster -c "$CONC" \
    -duration "$DURATION" -values 2000 -batch 8 &
LOAD_PID=$!
sleep 1
kill -9 "$NODE0_PID"
echo "killed shard n0 mid-load"
wait "$LOAD_PID" || { echo "cluster load saw out-of-bound reads"; exit 1; }

# --- Act 3: every manifest key must survive on its other replica ------
"$TMP/avrstore" verify -addr "$ROUTER" -manifest "$TMP/manifest.json"

# --- Act 4: eject on the dead shard, readmit after restart ------------
poll_stat() { # counter min_value: avr_router_<counter> on the router's /metrics
    for _ in $(seq 1 100); do
        v="$(curl -sf "http://$ROUTER/metrics" \
            | awk -v n="avr_router_$1" '$1 == n {print $2}' || true)"
        [ -n "$v" ] && [ "$v" -ge "$2" ] && return 0
        sleep 0.1
    done
    echo "router counter avr_router_$1 never reached $2"; exit 1
}
poll_stat node_ejects 1

# Same address as before — the topology is static, so the shard must
# come back where the ring expects it. The store dir recovers whatever
# the kill -9 left on disk.
"$TMP/avrd" -addr "$(cat "$TMP/node0.addr")" \
    -store-dir "$TMP/store0" &
PIDS+=("$!")
poll_stat node_readmits 1

# One more load run against the healed cluster.
"$TMP/avrload" -addr "$ROUTER" -mode cluster -c "$CONC" -duration 2s \
    -values 2000 -batch 8

# --- Act 5: hot re-reads through the router's response cache ----------
# avrload exits non-zero on any out-of-bound value, so a passing run
# means the cached responses are as correct as the proxied ones.
"$TMP/avrload" -addr "$ROUTER" -mode storehot -c "$CONC" -duration 2s \
    -values 2000 -hotkeys 16 > "$TMP/hot.json"
grep -q '"corrupt": 0' "$TMP/hot.json"
HITS="$(grep -o '"cache_hits": [0-9]*' "$TMP/hot.json" | tr -dc 0-9)"
[ -n "$HITS" ] && [ "$HITS" -gt 0 ] || { echo "router hot phase produced no cache hits"; exit 1; }
RATE="$(grep -o '"cache_hit_rate": [0-9.]*' "$TMP/hot.json" | grep -o '[0-9.]*$')"
awk -v r="${RATE:-0}" 'BEGIN{exit !(r>=0.9)}' \
    || { echo "router hot hit rate ${RATE:-0} below 0.9"; exit 1; }
echo "router hot re-read phase: $HITS cache hits (rate $RATE), all within bound"

# --- Act 6: the router's /metrics families ----------------------------
curl -sf "http://$ROUTER/metrics" > "$TMP/metrics.txt"
grep -q '^avr_router_fanouts ' "$TMP/metrics.txt"
grep -q '^avr_cache_hits ' "$TMP/metrics.txt"

echo "cluster smoke OK (router pack/verify, kill -9 failover with zero out-of-bound reads, eject/readmit, hot cache phase)"
