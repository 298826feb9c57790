package server

import (
	"expvar"

	"avr/internal/obs"
	"avr/internal/trace"
)

// Serving-path histograms. Process-global like the obs expvar counters
// (expvar.Publish panics on duplicate names, and avrd runs one service
// per process); concurrent observers go through the SyncHistogram lock.
var (
	latencyHist = obs.NewSyncHistogram(obs.ServerLatencyHistogram())
	ratioHist   = obs.NewSyncHistogram(obs.CodecRatioHistogram())
)

func init() {
	expvar.Publish("avr.server_latency", expvar.Func(func() any {
		return latencyHist.Summary()
	}))
	expvar.Publish("avr.server_ratio", expvar.Func(func() any {
		return ratioHist.Summary()
	}))
}

// Stats is the JSON document served at /v1/stats: the serving-path
// counters plus histogram snapshots, mirroring the expvar avr.* vars in
// one fetch.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ready         bool    `json:"ready"`
	Requests      int64   `json:"requests"`
	Encodes       int64   `json:"encodes"`
	Decodes       int64   `json:"decodes"`
	Errors        int64   `json:"errors"`
	Shed          int64   `json:"shed"`
	InFlight      int64   `json:"in_flight"`
	BytesIn       int64   `json:"bytes_in"`
	BytesOut      int64   `json:"bytes_out"`

	// Store-tier counters (all zero when the store endpoints are off).
	StorePuts         int64 `json:"store_puts"`
	StoreGets         int64 `json:"store_gets"`
	StoreDeletes      int64 `json:"store_deletes"`
	StorePutBytes     int64 `json:"store_put_bytes"`
	StoreGetBytes     int64 `json:"store_get_bytes"`
	StorePartial      int64 `json:"store_partial_206"`
	StoreQueries      int64 `json:"store_queries"`
	QueryBytesTouched int64 `json:"query_bytes_touched"`
	QueryBytesTotal   int64 `json:"query_bytes_total"`

	// Read-cache counters (all zero when -cache-bytes is 0).
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	CacheEvictions     int64 `json:"cache_evictions"`
	CacheResidentBytes int64 `json:"cache_resident_bytes"`
	CacheLines         int64 `json:"cache_lines"`
	PrefetchIssued     int64 `json:"prefetch_issued"`
	PrefetchUseful     int64 `json:"prefetch_useful"`

	Latency obs.Summary `json:"latency"`
	Ratio   obs.Summary `json:"ratio"`

	// Stages breaks request latency down by pipeline stage, keyed by the
	// trace stage wire names. All eight keys are always present so
	// dashboards never branch on shape.
	Stages map[string]StageStats `json:"stages"`
}

// StageStats is one pipeline stage's latency digest in /v1/stats.
type StageStats struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
}

// snapshotStageStats digests the tracer's per-stage histograms.
func snapshotStageStats() map[string]StageStats {
	sums := trace.StageSummaries()
	out := make(map[string]StageStats, trace.NumStages)
	for i, sum := range sums {
		out[trace.Stage(i).String()] = StageStats{
			Count:  sum.Count,
			MeanUs: sum.Mean(),
			P50Us:  sum.Quantile(0.50),
			P99Us:  sum.Quantile(0.99),
		}
	}
	return out
}

// snapshotStats collects the current serving-path statistics.
func (s *Server) snapshotStats() Stats {
	c := s.Counters()
	return Stats{
		UptimeSeconds: s.Uptime().Seconds(),
		Ready:         s.Ready(),
		Requests:      c.Requests.Value(),
		Encodes:       obs.ServerEncodes.Value(),
		Decodes:       obs.ServerDecodes.Value(),
		Errors:        c.Errors.Value(),
		Shed:          c.Shed.Value(),
		InFlight:      c.InFlight.Value(),
		BytesIn:       c.BytesIn.Value(),
		BytesOut:      c.BytesOut.Value(),

		StorePuts:         obs.StorePuts.Value(),
		StoreGets:         obs.StoreGets.Value(),
		StoreDeletes:      obs.StoreDeletes.Value(),
		StorePutBytes:     obs.StorePutBytes.Value(),
		StoreGetBytes:     obs.StoreGetBytes.Value(),
		StorePartial:      obs.ServerStorePartial.Value(),
		StoreQueries:      obs.StoreQueries.Value(),
		QueryBytesTouched: obs.StoreQueryBytesTouched.Value(),
		QueryBytesTotal:   obs.StoreQueryBytesTotal.Value(),

		CacheHits:          obs.CacheHits.Value(),
		CacheMisses:        obs.CacheMisses.Value(),
		CacheEvictions:     obs.CacheEvictions.Value(),
		CacheResidentBytes: obs.CacheResidentBytes.Value(),
		CacheLines:         obs.CacheLines.Value(),
		PrefetchIssued:     obs.PrefetchIssued.Value(),
		PrefetchUseful:     obs.PrefetchUseful.Value(),

		Latency: latencyHist.Summary(),
		Ratio:   ratioHist.Summary(),
		Stages:  snapshotStageStats(),
	}
}
