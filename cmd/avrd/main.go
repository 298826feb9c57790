// Command avrd serves the AVR fp32/fp64 codec over HTTP: raw
// little-endian values in, AVR streams out, and the reverse. It is the
// serving face of the repository — bounded concurrency with 429
// load-shedding instead of unbounded queues, per-request error
// thresholds, graceful drain on SIGTERM, and the avr.* expvar
// counters/histograms on -debug-addr.
//
// Usage:
//
//	avrd -addr localhost:8080 -workers 8 -queue 64 -t1 0.03125
//	curl -s --data-binary @values.f32le 'localhost:8080/v1/encode?t1=0.0625' > out.avr
//	curl -s --data-binary @out.avr localhost:8080/v1/decode > approx.f32le
//	curl -s localhost:8080/metrics | grep '^avr_server_latency_count'
//
// With -store-dir the daemon also serves the persistent approximate
// block store (internal/store) at /v1/store/{put,get,query,key,stats}:
//
//	avrd -addr localhost:8080 -store-dir /var/lib/avr
//	curl -s -X PUT --data-binary @values.f32le 'localhost:8080/v1/store/put?key=temps'
//	curl -s 'localhost:8080/v1/store/get?key=temps' > approx.f32le
//	curl -s 'localhost:8080/v1/store/query?key=temps' | jq .sum
//	curl -s 'localhost:8080/v1/store/query?key=temps&op=filter&lo=0&hi=1' | jq .matches
//	curl -s localhost:8080/v1/store/stats | jq .achieved_ratio
//
// /v1/store/query answers aggregate, range-filter, and 16→1 downsample
// queries in the compressed domain — record summaries, bitmaps and
// outliers instead of decoded payloads — and reports the error bound
// plus bytes_touched/bytes_total traffic accounting with each answer.
//
// Every response carries an X-AVR-Trace request id plus X-AVR-Stage-*
// headers attributing its latency to pipeline stages (queue wait, codec
// pool checkout, encode/decode, segment I/O, lock wait, query walk).
// GET /metrics serves every avr.* counter and histogram in Prometheus
// text exposition format, and -trace-file appends one JSON line per
// sampled request (-trace-sample controls the 1-in-N rate):
//
//	avrd -addr localhost:8080 -trace-file traces.jsonl -trace-sample 16
//	curl -s localhost:8080/metrics | grep avr_trace_stage_queue
//	avrtop -addr localhost:8080 -once            # per-stage p99 off /metrics
//
// With -addr :0 the bound address is printed on startup and, with
// -addr-file, written to a file for scripts (see scripts/serve_smoke.sh).
package main

import (
	"flag"
	"log/slog"
	"time"

	"avr/internal/cliutil"
	"avr/internal/server"
	"avr/internal/store"
)

func main() {
	d := cliutil.RegisterDaemon(flag.CommandLine, "localhost:8080")
	storeDir := flag.String("store-dir", "", "enable the persistent block store rooted at this directory (/v1/store/*)")
	storeSegmentBytes := flag.Int64("store-segment-bytes", 0, "segment roll size in bytes; 0 = default (64 MiB)")
	storeCompactEvery := flag.Duration("store-compact-interval", 30*time.Second, "background compaction cadence; 0 disables the worker")
	storeSync := flag.Bool("store-sync", false, "fsync the active segment after every put (durability over throughput)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "summary-line read cache byte budget; 0 disables the cache")
	prefetch := flag.Bool("prefetch", true, "stride-prefetch summary lines on sequential key patterns (needs -cache-bytes > 0)")
	var t1 float64
	cliutil.RegisterT1(flag.CommandLine, &t1)
	flag.Parse()

	cliutil.StartDebug(d.DebugAddr)

	var st *store.Store
	if *storeDir != "" {
		var err error
		// The store runs at the same quantized threshold the codec pool
		// serves, so clients verifying against the grid (avrload) see one
		// consistent bound across /v1/encode and /v1/store.
		st, err = store.Open(store.Config{
			Dir:                *storeDir,
			T1:                 server.QuantizeT1(t1),
			SegmentTargetBytes: *storeSegmentBytes,
			CompactEvery:       *storeCompactEvery,
			SyncEveryPut:       *storeSync,
			CacheBytes:         *cacheBytes,
			Prefetch:           *prefetch,
		})
		if err != nil {
			cliutil.Fatal(err)
		}
		defer st.Close()
		stats := st.Stats()
		slog.Info("store open", "dir", *storeDir, "keys", stats.Keys,
			"segments", stats.Segments, "disk_bytes", stats.DiskBytes)
	}

	frame := d.Frame()
	srv := server.New(server.Config{TierConfig: frame, T1: t1, Store: st})
	d.Run("avrd", srv, "queue", frame.QueueDepth, "max_body", frame.MaxBodyBytes)
}
