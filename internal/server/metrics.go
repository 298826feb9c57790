package server

import (
	"expvar"

	"avr/internal/obs"
)

// Serving-path histograms. Process-global like the obs expvar counters
// (expvar.Publish panics on duplicate names, and avrd runs one service
// per process); concurrent observers go through the SyncHistogram lock.
// /metrics renders them with every other avr.* series.
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
