#!/usr/bin/env bash
# scripts/serve_smoke.sh — end-to-end smoke of the avrd binary, started on
# an ephemeral port. Each act is here because no `go test` reaches it:
#
#   1. codec load: the daemon binary (flags, -addr-file, listener) under a
#      separate process's load, every response byte-compared with the
#      direct codec (avrload exits non-zero on a mismatch or no success).
#   2. hot re-reads: avrload -mode storehot against the daemon binary,
#      whose X-AVR-Cache tally must show a hit rate of at least 0.5
#      (TestVerifierPassesCleanRuns runs the mode in process).
#   3. /metrics families: the daemon process, not a test server, exports
#      the families avrtop and the dashboards read.
#   4. -trace-file: the flag's only run; sampled spans land as JSONL
#      (TestSinkJSONL holds the line format).
#   5. SIGTERM: the only real signal; the drain must exit 0
#      (TestDaemonServesUntilCancelledThenDrains holds the loop).
#
# Replaced by in-process tests: /healthz and /readyz (TestFrameConformance),
# the trace and stage headers (TestStageSumsWithinLatency) and the
# exposition lint (TestMetricsEndpoint, TestFrameConformance's
# monitoring_under_overload).
#
# A CI gate, not a benchmark: avrload verifies and measures nothing; the
# serving metrics are bench/'s workloads (BENCHMARK.json).
#
# Usage: scripts/serve_smoke.sh [duration] [concurrency]
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${1:-2s}"
CONC="${2:-8}"

TMP="$(mktemp -d)"
AVRD_PID=""
cleanup() {
    [ -n "$AVRD_PID" ] && kill "$AVRD_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/avrd" ./cmd/avrd
go build -o "$TMP/avrload" ./cmd/avrload

"$TMP/avrd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" \
    -store-dir "$TMP/store" -cache-bytes $((64<<20)) \
    -trace-file "$TMP/traces.jsonl" -trace-sample 4 &
AVRD_PID=$!

for _ in $(seq 1 100); do
    [ -s "$TMP/addr" ] && break
    sleep 0.1
done
[ -s "$TMP/addr" ] || { echo "avrd never wrote its address"; exit 1; }
ADDR="$(cat "$TMP/addr")"
echo "avrd up on $ADDR"

# --- Act 1: codec load -------------------------------------------------
"$TMP/avrload" -addr "$ADDR" -c "$CONC" -duration "$DURATION" -values 4096 -dist heat

# --- Act 2: hot re-reads -----------------------------------------------
# The summary-first read cache must serve repeat reads from memory.
# avrload exits non-zero on any out-of-bound value, so reaching the
# hit-rate check below already proves zero corruption.
"$TMP/avrload" -addr "$ADDR" -mode storehot -c "$CONC" -duration "$DURATION" \
    -values 4096 -hotkeys 16 > "$TMP/hot.json"
grep -q '"corrupt": 0' "$TMP/hot.json"
HITS="$(grep -o '"cache_hits": [0-9]*' "$TMP/hot.json" | tr -dc 0-9)"
[ -n "$HITS" ] && [ "$HITS" -gt 0 ] || { echo "hot phase produced no cache hits"; exit 1; }
RATE="$(grep -o '"cache_hit_rate": [0-9.]*' "$TMP/hot.json" | grep -o '[0-9.]*$')"
awk -v r="${RATE:-0}" 'BEGIN{exit !(r>=0.5)}' \
    || { echo "hot phase hit rate ${RATE:-0} below 0.5"; exit 1; }
echo "hot re-read phase: $HITS cache hits (rate $RATE), all within bound"

# --- Act 3: /metrics families ------------------------------------------
curl -sf "http://$ADDR/metrics" > "$TMP/metrics.txt"
grep -q '^avr_server_requests ' "$TMP/metrics.txt"
grep -q '^avr_trace_stage_queue_bucket' "$TMP/metrics.txt"
grep -q '^avr_cache_hits ' "$TMP/metrics.txt"

# --- Act 4: -trace-file ------------------------------------------------
[ -s "$TMP/traces.jsonl" ] || { echo "trace export file empty"; exit 1; }
grep -q '"op":' "$TMP/traces.jsonl"

# --- Act 5: SIGTERM drain must exit 0 after in-flight work ------------
kill -TERM "$AVRD_PID"
wait "$AVRD_PID"
AVRD_PID=""
echo "serve smoke OK (graceful drain clean)"
