#!/usr/bin/env bash
# scripts/store_smoke.sh — end-to-end gate for the persistent block
# store, in three acts:
#
#   1. offline: avrstore pack → verify (every value within t1, lossless
#      blocks bit-exact against regenerated ground truth)
#   2. crash drill: chop bytes off the newest segment (torn-tail
#      simulation), then verify -allow-partial — recovery must keep
#      every surviving value within bound; compaction must still work
#   3. serving: avrd -store-dir under avrload -mode store, then kill -9
#      mid-traffic and reopen — the store must recover and verify
#
# A CI gate, not a benchmark — see EXPERIMENTS.md for the recorded
# store-mode load baseline.
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

# --- Act 2: torn-tail crash drill ------------------------------------
# Chop 37 bytes off the newest segment: a torn frame the recovery scan
# must truncate, losing at most the tail blocks of the last put.
LAST_SEG="$(ls "$STORE"/seg-*.avrseg | sort | tail -1)"
SIZE="$(wc -c < "$LAST_SEG")"
truncate -s "$((SIZE - 37))" "$LAST_SEG"
echo "tore $LAST_SEG to $((SIZE - 37)) bytes"
"$TMP/avrstore" verify -dir "$STORE" -allow-partial
"$TMP/avrstore" compact -dir "$STORE"
"$TMP/avrstore" verify -dir "$STORE" -allow-partial

# --- Act 3: serving + kill -9 ----------------------------------------
SERVED="$TMP/served"
# Small segments so the short run exercises segment roll and gives the
# background compactor (and the post-kill offline compact) real victims.
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
grep -q '"query_latency"' <<<"$STATS"

# kill -9 mid-put traffic: no drain, no fsync — the next open must
# recover whatever the disk holds, torn tail included.
( "$TMP/avrload" -addr "$ADDR" -mode store -c "$CONC" -duration 5s \
    -values 20000 -dist wave >/dev/null 2>&1 || true ) &
LOAD_PID=$!
sleep 1
kill -9 "$AVRD_PID"
AVRD_PID=""
wait "$LOAD_PID" 2>/dev/null || true

# Reopen after the hard kill: recovery must succeed and the store must
# still serve and compact. (The load keys have no manifest, so inspect
# and compact are the verification here; avrload already bound-checked
# every get it made.)
"$TMP/avrstore" inspect -dir "$SERVED" | grep -q '"keys"'
"$TMP/avrstore" compact -dir "$SERVED"
echo "store smoke OK (pack/verify, torn-tail recovery, kill -9 reopen)"
