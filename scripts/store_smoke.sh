#!/usr/bin/env bash
# scripts/store_smoke.sh — end-to-end gate for the persistent block
# store, in two acts. Each is here because no `go test` reaches it:
#
#   1. offline: avrstore pack → verify → query -check. Kept: it is the
#      only run of the avrstore binary against regenerated ground truth
#      (flag parsing, manifest, exit codes), on a real file system. The
#      checks themselves are store.WithinT1 and store.Truth, whose every
#      clause TestTruthRejectsEachClause refuses doctored.
#   2. serving: avrd -store-dir under avrload -mode store and -mode query,
#      then /v1/store/stats and /metrics. Kept: it is the only run of the
#      real daemon with the store behind it, the background compactor and
#      rolls on, every response bound-checked by a separate process, and
#      the only check that the daemon serves its store's document and
#      counts the queries it answered (avr_store_queries on /metrics).
#
# What a crash leaves — a torn tail, a kill -9, a power cut — is not
# drilled from here any more: TestPowerCutAnywhere (internal/store) cuts
# at every I/O call of seeded schedules and checks DESIGN.md §5.9, which a
# `truncate -s` and one `kill -9` per run never could.
#
# A CI gate, not a benchmark: avrload verifies and measures nothing; the
# store's serving metrics are bench/'s workloads (BENCHMARK.json).
#
# Usage: scripts/store_smoke.sh [duration] [concurrency]
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${1:-2s}"
CONC="${2:-4}"

TMP="$(mktemp -d)"
AVRD_PID=""
cleanup() {
    [ -n "$AVRD_PID" ] && kill -9 "$AVRD_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/avrd" ./cmd/avrd
go build -o "$TMP/avrload" ./cmd/avrload
go build -o "$TMP/avrstore" ./cmd/avrstore

# --- Act 1: offline pack + verify ------------------------------------
STORE="$TMP/store"
"$TMP/avrstore" pack -dir "$STORE" -keys 6 -values 20000 -dist mixed-all
"$TMP/avrstore" verify -dir "$STORE"
"$TMP/avrstore" inspect -dir "$STORE" | grep -q '"achieved_ratio"'
# Cross-check the compressed-domain query engine against the same
# manifest ground truth verify just used value-by-value: aggregates
# within their error bounds, filter brackets never missing, downsample
# within per-point bounds.
"$TMP/avrstore" query -dir "$STORE" -check
# And a single ad-hoc query must report its traffic accounting.
"$TMP/avrstore" query -dir "$STORE" -key pack-0000 | grep -q '"bytes_touched"'

# --- Act 2: serving ---------------------------------------------------
SERVED="$TMP/served"
# Small segments so the short run exercises segment roll and gives the
# background compactor (and the offline compact after the drain) real
# victims.
"$TMP/avrd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" \
    -store-dir "$SERVED" -store-segment-bytes $((1 << 20)) \
    -store-compact-interval 250ms &
AVRD_PID=$!

for _ in $(seq 1 100); do
    [ -s "$TMP/addr" ] && break
    sleep 0.1
done
[ -s "$TMP/addr" ] || { echo "avrd never wrote its address"; exit 1; }
ADDR="$(cat "$TMP/addr")"
echo "avrd up on $ADDR with store $SERVED"

# Verified store-mode load: every get within t1 of its put.
"$TMP/avrload" -addr "$ADDR" -mode store -c "$CONC" -duration "$DURATION" \
    -values 20000 -dist heat

# Verified query-mode load: every compressed-domain answer within its
# reported error bound, and pure-AVR aggregates inside the 1/8 traffic
# budget. ramp compresses outlier-free at the default t1, so its frames
# weigh 0.069 of the raw bytes whatever the seed; a wave key's weigh
# 0.07-0.15 (bitmap, outliers and their cacheline padding), and a query
# reads frames whole.
"$TMP/avrload" -addr "$ADDR" -mode query -c "$CONC" -duration "$DURATION" \
    -values 20000 -dist ramp -maxtraffic 0.125

# Fetch once, grep the captured body: `curl | grep -q` races — grep
# exits at the first match and curl fails with a pipe write error.
STATS="$(curl -sf "http://$ADDR/v1/store/stats")"
grep -q '"achieved_ratio"' <<<"$STATS"
METRICS="$(curl -sf "http://$ADDR/metrics")"
grep -Eq '^avr_store_queries [1-9]' <<<"$METRICS"

# Drain, then the offline tool over what the daemon wrote: the two
# binaries must agree on the directory.
kill -TERM "$AVRD_PID"
wait "$AVRD_PID"
AVRD_PID=""
"$TMP/avrstore" inspect -dir "$SERVED" | grep -q '"keys"'
"$TMP/avrstore" compact -dir "$SERVED"
echo "store smoke OK (pack/verify/query, served store and query load)"
