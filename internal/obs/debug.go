package obs

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
)

// Serving-path counters of the avrd codec service (internal/server):
// cheap process-global atomics (expvar is process-global), updated per
// request, never per value. Every series in this file is rendered on
// /metrics by both tiers (avrd and avrrouter); /debug/vars serves them
// only on a daemon started with -debug-addr (ServeDebug).
var (
	// ServerRequests counts codec requests accepted for processing
	// (admission passed; includes requests that later fail).
	ServerRequests = expvar.NewInt("avr.server_requests")
	// ServerEncodes counts successful encode requests.
	ServerEncodes = expvar.NewInt("avr.server_encodes")
	// ServerErrors counts requests rejected for malformed input (bad
	// body, bad stream, bad parameters) or failed mid-operation.
	ServerErrors = expvar.NewInt("avr.server_errors")
	// ServerShed counts requests shed by the admission layer (429).
	ServerShed = expvar.NewInt("avr.server_shed")
	// ServerInFlight is the number of codec requests currently being
	// served (queued or executing).
	ServerInFlight = expvar.NewInt("avr.server_in_flight")
	// ServerBytesIn/Out count request/response body bytes of successful
	// codec operations.
	ServerBytesIn  = expvar.NewInt("avr.server_bytes_in")
	ServerBytesOut = expvar.NewInt("avr.server_bytes_out")
	// ServerStorePartial counts store responses served as 206 Partial
	// Content: a get or query over a vector whose tail was lost to a
	// crash (the recovered prefix is still within the error bound).
	ServerStorePartial = expvar.NewInt("avr.server_store_partial")
)

// Block-store counters, published by internal/store. Same contract as
// the serving-path counters: cheap process-global atomics, updated per
// operation (put/get/compaction step), never per value. Tests assert
// deltas, not absolutes, since expvar state is process-wide.
var (
	// StorePuts/StoreGets count puts committed and gets answered.
	StorePuts = expvar.NewInt("avr.store_puts")
	StoreGets = expvar.NewInt("avr.store_gets")
	// StoreEncodes counts vectors run through the store's block encoder:
	// by a store's PutVec, or by an Encoder on its own (the cluster
	// router). A put that arrived encoded counts in StorePuts only, so
	// puts minus encodes, fleet-wide, is the re-encoding avoided.
	StoreEncodes = expvar.NewInt("avr.store_encodes")
	// StoreCompressSkips counts Put-path blocks that skipped the AVR
	// compression attempt because the key's live block there is flagged
	// as badly compressing at the store's current threshold (the paper's
	// CMT skip policy on the write path).
	StoreCompressSkips = expvar.NewInt("avr.store_compress_skips")
	// Recompression-policy counters, bumped by the compaction worker:
	// Tried counts lossless blocks whose AVR retry ran, Skipped counts
	// flagged blocks whose retry was elided, Won counts retries that
	// met the ratio floor and converted the block to AVR.
	StoreRecompressTried   = expvar.NewInt("avr.store_recompress_tried")
	StoreRecompressSkipped = expvar.NewInt("avr.store_recompress_skipped")
	StoreRecompressWon     = expvar.NewInt("avr.store_recompress_won")
	// Compaction accounting: passes completed, and the bytes of live
	// frames those passes rewrote into the active segment (the write
	// amplification compaction adds; not the dead bytes it freed).
	StoreCompactions    = expvar.NewInt("avr.store_compactions")
	StoreCompactedBytes = expvar.NewInt("avr.store_compacted_bytes")
	// StoreTornTails counts torn tail segments truncated during reopen
	// recovery (crash mid-append).
	StoreTornTails = expvar.NewInt("avr.store_torn_tails")
	// Compressed-domain query counters: queries answered, encoded bytes
	// actually read, and the raw bytes those queries covered — the pair
	// proves the traffic reduction of answering from summaries.
	StoreQueries           = expvar.NewInt("avr.store_queries")
	StoreQueryBytesTouched = expvar.NewInt("avr.store_query_bytes_touched")
	StoreQueryBytesTotal   = expvar.NewInt("avr.store_query_bytes_total")

	// Read-cache counters (internal/readcache, mounted store-side by
	// internal/store and router-side by internal/cluster). Where store
	// caches and a router cache share a process (bench/, the cluster
	// tests' newTestCluster) these sum all of them; per-instance
	// counters are ROADMAP item 1.
	//
	// CacheHits/CacheMisses count reads served from resident summary
	// lines vs reads that fell through to the disk path; CacheEvictions
	// counts lines evicted to stay under the byte budget.
	CacheHits      = expvar.NewInt("avr.cache_hits")
	CacheMisses    = expvar.NewInt("avr.cache_misses")
	CacheEvictions = expvar.NewInt("avr.cache_evictions")
	// CacheResidentBytes/CacheLines gauge the cache's current occupancy
	// (updated by delta on insert/evict/invalidate).
	CacheResidentBytes = expvar.NewInt("avr.cache_resident_bytes")
	CacheLines         = expvar.NewInt("avr.cache_lines")
	// PrefetchIssued counts summary lines pulled in by the stride
	// prefetcher; PrefetchUseful counts prefetched lines that later
	// served a hit (the pair is the prefetch accuracy).
	PrefetchIssued = expvar.NewInt("avr.prefetch_issued")
	PrefetchUseful = expvar.NewInt("avr.prefetch_useful")

	// Router-tier counters (internal/cluster, cmd/avrrouter).
	//
	// RouterRequests counts requests admitted past the router's bounded
	// queue; RouterShed the 429/503 backpressure responses; RouterErrors
	// requests that failed on every replica leg.
	RouterRequests = expvar.NewInt("avr.router_requests")
	RouterShed     = expvar.NewInt("avr.router_shed")
	RouterErrors   = expvar.NewInt("avr.router_errors")
	// RouterFanouts counts downstream legs issued (every proxied
	// request, replica fallbacks and retries included).
	RouterFanouts = expvar.NewInt("avr.router_fanouts")
	// RouterFailovers counts reads/writes that fell through from the
	// primary to the replica leg; RouterRetries counts replica-leg
	// retry attempts beyond the first.
	RouterFailovers = expvar.NewInt("avr.router_failovers")
	RouterRetries   = expvar.NewInt("avr.router_retries")
	// RouterNodeEjects/RouterNodeReadmits count health-prober state
	// transitions: a node leaving rotation after consecutive /readyz
	// failures, and coming back after consecutive successes.
	RouterNodeEjects   = expvar.NewInt("avr.router_node_ejects")
	RouterNodeReadmits = expvar.NewInt("avr.router_node_readmits")
)

// debugMetricsOnce guards /metrics registration on the default mux:
// ServeDebug may be called more than once per process (tests), and
// http.HandleFunc panics on duplicate patterns.
var debugMetricsOnce sync.Once

// ServeDebug starts an HTTP server on addr exposing expvar counters at
// /debug/vars, Prometheus exposition at /metrics, and the pprof
// profiling endpoints at /debug/pprof/ for live introspection of long
// sweeps. It returns the bound address (useful with ":0") and serves
// until the process exits.
func ServeDebug(addr string) (string, error) {
	debugMetricsOnce.Do(func() {
		http.Handle("GET /metrics", MetricsHandler())
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, nil) // serves until process exit
	return ln.Addr().String(), nil
}
