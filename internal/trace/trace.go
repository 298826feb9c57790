// Package trace is the serving tier's request-scoped tracer: an
// allocation-free, sampling span recorder that attributes each request's
// latency to the pipeline stage that spent it — admission queue wait,
// codec pool checkout, encode/decode kernel time, store segment I/O,
// compressed-domain query walk, store lock wait (the compaction
// interference signal), and the cluster router's shard resolution and
// downstream fan-out legs.
//
// The design follows the internal/obs contract: *disabled instrumentation
// is free*. A nil *Tracer starts nil *Spans, and every Span method is a
// valid no-op on a nil receiver, so untraced code paths pay one predicted
// branch. Enabled tracing is allocation-free in steady state: spans are
// pooled like the store's putScratch (sync.Pool, reset on reuse), stage
// durations live in a fixed array, histograms bump preallocated buckets,
// and the JSONL export path hand-appends into a reused buffer — all
// enforced by the BenchmarkSpanPool / BenchmarkTracedPut32 gates in
// scripts/bench.sh.
//
// One span covers one request. The serving handlers time each stage with
// Begin/End token pairs, write the span's id and per-stage durations onto
// the response (X-AVR-Trace plus X-AVR-Stage-* headers), and Finish the
// span: every stage duration feeds a process-global SyncHistogram
// (published as avr.trace_stage_* expvars, so /metrics can break p50/p99
// down by stage), and every sample-th span is exported as
// one JSON line.
package trace

import (
	"expvar"
	"net/http"
	"net/textproto"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avr/internal/obs"
)

// Stage identifies one pipeline stage of a request. Stages are disjoint
// wall-clock sections, so a span's stage durations sum to at most its
// end-to-end time (pinned by TestStageSumsWithinLatency in
// internal/server).
type Stage uint8

const (
	// StageQueue is time spent waiting in the bounded admission queue
	// for a worker slot.
	StageQueue Stage = iota
	// StagePool is the codec-pool checkout (and threshold quantization).
	StagePool
	// StageEncode is codec encode kernel time (HTTP encode requests and
	// the store put path's block encoding) — on the router, which encodes
	// a replicated put once for all its owners, with the decode of the
	// values it arrived as.
	StageEncode
	// StageDecode is codec decode kernel time (HTTP decode requests and
	// the store get path's block decoding), and the check of a put that
	// arrived encoded: the same walk over the stream, nothing rebuilt.
	StageDecode
	// StageSegRead is store segment read time: pread + CRC verification.
	StageSegRead
	// StageSegWrite is store segment append time: frame serialisation,
	// write, and any configured fsync.
	StageSegWrite
	// StageLock is time spent waiting for the store mutex — the
	// compaction/writer interference a request observes.
	StageLock
	// StageQuery is the compressed-domain query walk: the fixed-point
	// reconstruction and integer reductions (exact values of raw and
	// lossless blocks included) over frames already read and verified
	// (that read is StageSegRead, as on a get).
	StageQuery
	// StageRoute is the router tier's shard resolution: ring lookups
	// plus batch plan bookkeeping (grouping keys by owning node) —
	// pure CPU, no network.
	StageRoute
	// StageFanout is the router tier's downstream time: every proxied
	// leg, including replica fallbacks and retries, from first byte out
	// to last byte back.
	StageFanout
	// StageCacheHit is read-cache reconstruction time: interpolating
	// resident summary lines and patching exact outliers back in, in
	// place of a segment read + full decode.
	StageCacheHit

	// NumStages is the number of traced stages.
	NumStages = int(StageCacheHit) + 1
)

// stageNames are the wire names: JSONL keys, header suffixes and expvar
// (so /metrics family) suffixes.
var stageNames = [NumStages]string{
	"queue", "pool", "encode", "decode",
	"segread", "segwrite", "lockwait", "query",
	"route", "fanout", "cachehit",
}

// String returns the stage's wire name.
func (st Stage) String() string {
	if int(st) >= NumStages {
		return "unknown"
	}
	return stageNames[st]
}

// TraceHeader carries the request id on every avrd response, in
// canonical MIME form so clients can index http.Header directly.
var TraceHeader = textproto.CanonicalMIMEHeaderKey("X-AVR-Trace")

// stageHeaderKeys are the canonical per-stage duration header names
// (X-Avr-Stage-<name>), precomputed so the serving path assigns into
// the header map without re-canonicalizing per request.
var stageHeaderKeys = func() [NumStages]string {
	var keys [NumStages]string
	for i, n := range stageNames {
		keys[i] = textproto.CanonicalMIMEHeaderKey("X-AVR-Stage-" + n)
	}
	return keys
}()

// HeaderKey returns the canonical response header carrying the stage's
// duration in nanoseconds.
func HeaderKey(st Stage) string { return stageHeaderKeys[st] }

// Per-stage duration histograms, process-global like the serving-path
// histograms in internal/server (expvar.Publish panics on duplicate
// names, and a process runs one serving tier); tests assert deltas.
var stageHists = func() [NumStages]*obs.SyncHistogram {
	var hs [NumStages]*obs.SyncHistogram
	for i, n := range stageNames {
		h := obs.NewSyncHistogram(obs.StageLatencyHistogram("trace_stage_" + n))
		hs[i] = h
		expvar.Publish("avr.trace_stage_"+n, expvar.Func(func() any {
			return h.Summary()
		}))
	}
	return hs
}()

// Span/export accounting, published with the other avr.* counters.
var (
	// SpansFinished counts spans completed through Tracer.Finish.
	SpansFinished = expvar.NewInt("avr.trace_spans")
	// SpansExported counts spans exported as JSONL lines.
	SpansExported = expvar.NewInt("avr.trace_exported")
)

// Span is one request's stage-duration record. The zero value is ready
// after a Tracer hands it out; a nil *Span is a valid no-op receiver.
type Span struct {
	id      uint64
	t0      time.Time
	sampled bool
	stages  [NumStages]time.Duration
}

// Begin returns a start token for timing a stage. On a nil span it
// returns the zero time without reading the clock.
func (sp *Span) Begin() time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// End accumulates the time since t0 into the stage. A stage may be
// ended multiple times (e.g. one segment read per block); durations
// add.
func (sp *Span) End(st Stage, t0 time.Time) {
	if sp == nil {
		return
	}
	sp.stages[st] += time.Since(t0)
}

// Add accumulates an externally measured duration into the stage.
func (sp *Span) Add(st Stage, d time.Duration) {
	if sp == nil {
		return
	}
	sp.stages[st] += d
}

// StageDur returns the accumulated duration of one stage. Only tests
// call it, the store's traced-path tests among them.
func (sp *Span) StageDur(st Stage) time.Duration {
	if sp == nil {
		return 0
	}
	return sp.stages[st]
}

// ID returns the span's request id (0 on a nil span).
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.id
}

// WriteID sets just the X-AVR-Trace request id. Handlers call it as
// soon as the span starts so even error responses carry the id; a
// later WriteHeaders overwrites it with the identical value.
func (sp *Span) WriteID(h http.Header) {
	if sp == nil {
		return
	}
	h[TraceHeader] = []string{FormatID(sp.id)}
}

// WriteHeaders sets the X-AVR-Trace request id plus one
// X-AVR-Stage-<name> header (integer nanoseconds) per touched stage.
// Call before the response body is written.
func (sp *Span) WriteHeaders(h http.Header) {
	if sp == nil {
		return
	}
	h[TraceHeader] = []string{FormatID(sp.id)}
	for st, d := range sp.stages {
		if d > 0 {
			h[stageHeaderKeys[st]] = []string{strconv.FormatInt(int64(d), 10)}
		}
	}
}

// FormatID renders a span id the way X-AVR-Trace carries it: 16 hex
// digits.
func FormatID(id uint64) string {
	return string(appendHexID(make([]byte, 0, 16), id))
}

// Config tunes a Tracer.
type Config struct {
	// SampleEvery exports one of every SampleEvery finished spans as a
	// JSON line to Sink (0 selects the default, 64; export needs a
	// Sink). Stage histograms and response headers always cover every
	// span — sampling gates only the JSONL export volume.
	SampleEvery int
	// Sink receives exported spans, one JSON object per line. nil
	// disables export.
	Sink *Sink
}

// DefaultSampleEvery is the export sampling rate when Config leaves it
// unset: 1-in-64 keeps the JSONL volume negligible next to the traffic
// it describes.
const DefaultSampleEvery = 64

// Tracer starts and finishes spans. A nil *Tracer is valid and starts
// nil spans, so a server without tracing pays almost nothing.
type Tracer struct {
	every uint64
	seq   atomic.Uint64
	base  uint64
	sink  *Sink
	pool  sync.Pool
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	t := &Tracer{
		every: uint64(cfg.SampleEvery),
		// Offset ids by the start time so ids from successive processes
		// don't collide in aggregated trace files.
		base: uint64(time.Now().UnixNano()) << 16,
		sink: cfg.Sink,
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Start hands out a reset, pooled span. Pair with Finish.
func (t *Tracer) Start() *Span {
	if t == nil {
		return nil
	}
	sp := t.pool.Get().(*Span)
	n := t.seq.Add(1)
	sp.id = t.base | (n & 0xffff)
	sp.sampled = n%t.every == 0
	sp.t0 = time.Now()
	clear(sp.stages[:])
	return sp
}

// Finish completes a span: every touched stage feeds its histogram
// (microsecond buckets), every sample-th span is exported as JSONL, and
// the span returns to the pool. op labels the request kind in the
// export ("encode", "put", "query", ...). It returns the span's
// end-to-end time — the one clock a request is timed by — and the span
// must not be used after it.
func (t *Tracer) Finish(op string, sp *Span) time.Duration {
	if t == nil || sp == nil {
		return 0
	}
	total := time.Since(sp.t0)
	for st, d := range sp.stages {
		if d > 0 {
			stageHists[st].Observe(float64(d) / 1e3)
		}
	}
	SpansFinished.Add(1)
	if t.sink != nil && sp.sampled {
		t.sink.write(op, sp, int64(total))
		SpansExported.Add(1)
	}
	t.pool.Put(sp)
	return total
}
