package main

import (
	"avr"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are the metrics a user of the system sees. Every workload
// reports every one of them, so each is defined per workload:
//
//	work_per_s    values stored, returned or covered per second of client
//	              time over the fastest three quarters of each op kind's
//	              cycles (keptRate) on the serving workloads; simulated
//	              instructions per host second on sim_matrix, each cell
//	              at its fastest pass
//	primary_ms    client-observed median latency of the workload's main
//	              op; on sim_matrix the mean host time of an AVR cell
//	secondary_ms  the same for the workload's second op (see
//	              workload.secondaryWhat); on sim_matrix a Baseline cell
//	traffic_ratio bytes at the hop that holds the compressed form over the
//	              raw bytes: live bytes on disk / raw bytes of the live
//	              values on the serving workloads, geomean AVR/Baseline
//	              memory traffic (Fig. 11) on sim_matrix
var endToEndDefs = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"work_per_s", "1/s", higher, 0.25},
	{"primary_ms", "ms", lower, 0.25},
	{"secondary_ms", "ms", lower, 0.25},
	{"traffic_ratio", "ratio", lower, 0.03},
}

// perLayerDefs are the metrics of single layers; the prefix is the
// layer. A layer a workload never calls reads 0 there.
var perLayerDefs = func() []metricDef {
	d := []metricDef{
		// codec: package avr over internal/compress, fixed, simd
		{Name: "codec.encode_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "codec.encode_ns_per_value_noise", Unit: "ns/value", Better: lower},
		{Name: "codec.encode64_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "codec.decode_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "codec.decode64_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "codec.encoded_bytes_per_value", Unit: "B/value", Better: lower},
		{Name: "codec.mean_err_over_t1", Unit: "ratio", Better: lower},
		{Name: "codec.encode_calls_per_op", Unit: "count", Better: lower},
		{Name: "codec.decode_calls_per_op", Unit: "count", Better: lower},
		// store: internal/store, internal/lossless
		{Name: "store.put_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "store.put_ns_per_value_noise", Unit: "ns/value", Better: lower},
		{Name: "store.put_self_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "store.get_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "store.get64_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "store.get_self_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "store.query_aggregate_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "store.query_filter_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "store.query_downsample_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "store.open_s", Unit: "s", Better: lower},
		{Name: "store.query_bytes_touched_share", Unit: "share", Better: lower},
		{Name: "store.lossless_block_share", Unit: "share", Better: lower},
		{Name: "store.live_bytes_per_value", Unit: "B/value", Better: lower},
		{Name: "store.write_amp", Unit: "ratio", Better: lower},
		{Name: "store.compactions", Unit: "count", Better: lower},
		{Name: "store.compact_bytes_moved", Unit: "B", Better: lower},
		{Name: "store.segments", Unit: "count", Better: lower},
		{Name: "store.lockwait_us_p99", Unit: "us", Better: lower},
		// readcache: internal/readcache via Store.Get32IntoCached/Get64IntoCached
		{Name: "readcache.hit_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "readcache.hit64_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "readcache.miss_ns_per_value", Unit: "ns/value", Better: lower},
		{Name: "readcache.hit_share", Unit: "share", Better: higher},
		{Name: "readcache.hits_per_op", Unit: "count", Better: higher},
		{Name: "readcache.resident_bytes_per_value", Unit: "B/value", Better: lower},
		{Name: "readcache.evictions_per_kop", Unit: "count", Better: lower},
		{Name: "readcache.prefetch_useful_share", Unit: "share", Better: higher},
		// server: internal/server, the avrd HTTP rung
		{Name: "server.put_us_p50", Unit: "us", Better: lower},
		{Name: "server.get_us_p50", Unit: "us", Better: lower},
		{Name: "server.query_us_p50", Unit: "us", Better: lower},
		{Name: "server.put_self_us", Unit: "us", Better: lower},
		{Name: "server.get_self_us", Unit: "us", Better: lower},
		{Name: "server.query_self_us", Unit: "us", Better: lower},
		{Name: "server.mput_self_us_per_key", Unit: "us/key", Better: lower},
		{Name: "server.mget_self_us_per_key", Unit: "us/key", Better: lower},
	}
	for _, st := range serverStages {
		d = append(d, metricDef{Name: "server.stage_" + st + "_us", Unit: "us", Better: lower})
	}
	d = append(d,
		metricDef{Name: "server.unattributed_us", Unit: "us", Better: lower},
		metricDef{Name: "server.shed_share", Unit: "share", Better: lower},
		metricDef{Name: "server.wire_bytes_per_value", Unit: "B/value", Better: lower},
		// cluster: internal/cluster, the router rung
		metricDef{Name: "cluster.put_hop_us", Unit: "us", Better: lower},
		metricDef{Name: "cluster.get_hop_us", Unit: "us", Better: lower},
		metricDef{Name: "cluster.mput_hop_us_per_key", Unit: "us/key", Better: lower},
		metricDef{Name: "cluster.mget_hop_us_per_key", Unit: "us/key", Better: lower},
		metricDef{Name: "cluster.stage_route_us", Unit: "us", Better: lower},
		metricDef{Name: "cluster.stage_fanout_us", Unit: "us", Better: lower},
		metricDef{Name: "cluster.calls_per_op", Unit: "count", Better: lower},
		metricDef{Name: "cluster.fanouts_per_op", Unit: "count", Better: lower},
		metricDef{Name: "cluster.replicas_per_put", Unit: "count", Better: higher},
		metricDef{Name: "cluster.retries", Unit: "count", Better: lower},
		metricDef{Name: "cluster.failovers", Unit: "count", Better: lower},
		metricDef{Name: "cluster.shed_share", Unit: "share", Better: lower},
		metricDef{Name: "cluster.key_error_share", Unit: "share", Better: lower},
		metricDef{Name: "cluster.shard_imbalance", Unit: "ratio", Better: lower},
		metricDef{Name: "cluster.disk_bytes_per_value", Unit: "B/value", Better: lower},
	)
	// sim: internal/sim, core, cache, cmt, dram, cpu, experiments
	for _, b := range avr.Benchmarks() {
		d = append(d, metricDef{Name: "sim." + b + "_avr_host_s", Unit: "s", Better: lower})
	}
	d = append(d,
		metricDef{Name: "sim.baseline_host_s", Unit: "s", Better: lower},
		metricDef{Name: "sim.compress_ns_per_block", Unit: "ns/block", Better: lower},
		metricDef{Name: "sim.compress_fast_ns_per_block", Unit: "ns/block", Better: lower},
		metricDef{Name: "sim.decompress_ns_per_block", Unit: "ns/block", Better: lower},
		metricDef{Name: "sim.cells_per_op", Unit: "count", Better: lower},
		metricDef{Name: "sim.cycle_ratio", Unit: "ratio", Better: lower},
		metricDef{Name: "sim.llc_compresses", Unit: "count", Better: lower},
		metricDef{Name: "sim.llc_decompresses", Unit: "count", Better: lower},
		metricDef{Name: "sim.dram_bytes_avr", Unit: "B", Better: lower},
		metricDef{Name: "sim.dram_bytes_baseline", Unit: "B", Better: lower},
	)
	// client / proc / trace: the generator and the process
	for _, co := range clientOps {
		d = append(d, metricDef{Name: "client." + co.op + "_p50_ms", Unit: "ms", Better: lower})
		d = append(d, metricDef{Name: "client." + co.op + "_p90_ms", Unit: "ms", Better: lower})
		if co.op != "mput" && co.op != "mget" {
			d = append(d, metricDef{Name: "client." + co.op + "_p99_ms", Unit: "ms", Better: lower})
		}
	}
	return append(d,
		metricDef{Name: "client.verify_share", Unit: "share", Better: lower},
		metricDef{Name: "client.values_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "client.slow_cycle_share", Unit: "share", Better: lower},
		metricDef{Name: "proc.cpu_us_per_value", Unit: "us/value", Better: lower},
		metricDef{Name: "proc.allocs_per_op", Unit: "count", Better: lower},
		metricDef{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
		metricDef{Name: "proc.peak_rss_mb", Unit: "MB", Better: lower},
		metricDef{Name: "proc.ref_kernel_us", Unit: "us", Better: lower},
		metricDef{Name: "trace.overhead_share", Unit: "share", Better: lower},
	)
}()

// endToEnd computes the end-to-end metrics of one run. Times and rates
// are at reference speed (calib.go).
func endToEnd(r *runResult) map[string]float64 {
	m := map[string]float64{"setup_s": r.setup}
	if r.sim != nil {
		m["work_per_s"] = r.sim.instPerS()
		m["primary_ms"] = mean(r.sim.cellMs(avr.AVR))
		m["secondary_ms"] = mean(r.sim.cellMs(avr.Baseline))
		m["traffic_ratio"], _ = r.sim.ratios()
		return m
	}
	ref := refMedian(r.ref)
	rate, _ := keptRate(r.acct.cycles, keepShare, clients)
	m["work_per_s"] = rate * ref / refNominalNs
	m["primary_ms"] = atRefSpeed(median(r.acct.pooled(r.w.primary)), ref)
	m["secondary_ms"] = atRefSpeed(median(r.acct.pooled(r.w.secondary)), ref)
	m["traffic_ratio"] = ratio(float64(r.store.liveBytes), float64(r.store.rawBytes))
	return m
}

// runLayer computes the per-layer metrics that are counters read over
// the closed-loop run, as deltas over its timed phase. On sim_matrix the
// serving counters all read 0: no serving layer ran.
func runLayer(r *runResult) map[string]float64 {
	m := map[string]float64{"proc.peak_rss_mb": peakRSSMB(), "proc.ref_kernel_us": refMedian(r.ref) / 1e3}
	if r.sim != nil {
		m["sim.cells_per_op"] = 1
		_, m["sim.cycle_ratio"] = r.sim.ratios()
		for _, c := range r.sim.cells {
			if c.design == avr.AVR {
				m["sim.llc_compresses"] += float64(c.first().AVRStats.Compresses)
				m["sim.llc_decompresses"] += float64(c.first().AVRStats.Decompresses)
				m["sim.dram_bytes_avr"] += traffic(c.first())
			} else {
				m["sim.dram_bytes_baseline"] += traffic(c.first())
			}
		}
		return m
	}
	d, a, st := r.delta, r.acct, r.store
	ops := float64(a.attempted)
	values := float64(a.values)

	m["codec.encode_calls_per_op"] = ratio(float64(d.storePuts), ops)
	m["codec.decode_calls_per_op"] = ratio(float64(d.storeGets-d.cacheHits), ops)
	m["readcache.hits_per_op"] = ratio(float64(d.cacheHits), ops)
	m["cluster.calls_per_op"] = ratio(float64(d.routerRequests), ops)

	m["store.query_bytes_touched_share"] = ratio(float64(d.queryTouched), float64(d.queryTotal))
	m["store.lossless_block_share"] = ratio(float64(st.flaggedBlocks), float64(st.blocks))
	storedValues := float64(st.rawBytes) / (float64(rawKeyBytes) / r.ds.meanValues())
	m["store.live_bytes_per_value"] = ratio(float64(st.liveBytes), storedValues)
	m["store.write_amp"] = ratio(float64(a.storedB+d.compactedBytes), float64(st.liveBytes))
	m["store.compactions"] = float64(d.compactions)
	m["store.compact_bytes_moved"] = float64(d.compactedBytes)
	m["store.segments"] = float64(st.segments)
	m["store.lockwait_us_p99"] = quantile(a.lockwaitUs, 0.99)

	m["readcache.hit_share"] = ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMisses))
	m["readcache.resident_bytes_per_value"] = ratio(float64(st.cacheResident), float64(st.cacheLines)*r.ds.meanValues())
	m["readcache.evictions_per_kop"] = ratio(float64(d.cacheEvicts), ops/1e3)
	m["readcache.prefetch_useful_share"] = ratio(float64(d.prefetchUseful), float64(d.prefetchIssued))

	m["server.shed_share"] = ratio(float64(d.serverShed), float64(d.serverRequests+d.serverShed))
	m["server.wire_bytes_per_value"] = ratio(float64(a.wireBytes), values)

	m["cluster.fanouts_per_op"] = ratio(float64(d.routerFanouts), float64(d.routerRequests))
	m["cluster.replicas_per_put"] = ratio(float64(a.replicas), float64(a.replicaPut))
	m["cluster.retries"] = float64(d.routerRetries)
	m["cluster.failovers"] = float64(d.routerFailovers)
	m["cluster.shed_share"] = ratio(float64(d.routerShed), float64(d.routerRequests+d.routerShed))
	m["cluster.key_error_share"] = ratio(float64(a.keyErrors), float64(a.keysSent))
	if len(d.nodeReqs) > 0 {
		var max, sum float64
		for _, n := range d.nodeReqs {
			sum += float64(n)
			if float64(n) > max {
				max = float64(n)
			}
		}
		m["cluster.shard_imbalance"] = ratio(max, sum/float64(len(d.nodeReqs)))
		m["cluster.disk_bytes_per_value"] = ratio(float64(st.liveBytes), float64(r.ds.values))
	}

	clientNs := float64(clients) * r.timedS * 1e9
	m["client.verify_share"] = ratio(float64(a.verifyNs), clientNs)
	// What work_per_s leaves out: every cycle counted, as measured, and
	// the share of client time in each op kind's slowest quarter.
	m["client.values_per_s"] = ratio(values, r.timedS)
	_, m["client.slow_cycle_share"] = keptRate(a.cycles, keepShare, clients)
	m["proc.cpu_us_per_value"] = ratio(float64(d.cpuUs), values)
	m["proc.allocs_per_op"] = ratio(float64(d.mallocs), ops)
	m["proc.gc_pause_ms"] = float64(d.gcPauseNs) / 1e6
	return m
}

// meanValues is the mean vector length of the dataset's keys.
func (ds *dataset) meanValues() float64 {
	return float64(ds.values) / float64(len(ds.keys))
}
