// Command avrload drives an avrd instance with closed-loop concurrent
// traffic and reports the serving metrics that matter for capacity
// planning: throughput, latency percentiles, achieved compression
// ratio, and shed rate. Each connection generates a realistic dataset
// (internal/workloads generators), then loops encode→decode against
// the daemon, verifying every response byte-for-byte against a local
// codec — a load test that doubles as an end-to-end corruption check.
//
// Usage:
//
//	avrload -addr localhost:8080 -c 32 -duration 30s -values 4096 -dist heat
//	avrload -addr-file /tmp/avrd.addr -c 8 -duration 2s   # scripted (CI smoke)
//
// With -mode store the loop targets the persistent block store instead
// (avrd -store-dir): each connection owns one key and loops put→get,
// verifying every returned value is within the error threshold of what
// it stored — approximate durability checked end to end.
//
// With -mode query each connection stores its vector once and then
// loops compressed-domain queries (/v1/store/query): aggregate, range
// filter and downsample in rotation. Every response is checked against
// ground truth recomputed from the generated values: |approx − exact|
// must be within the response's own error_bound, filter brackets must
// contain the exact match count, and each downsampled point must be
// within its per-point bound — any violation counts as corruption and
// fails the run. Aggregate responses also feed a traffic account
// (bytes_touched / bytes_total); -maxtraffic turns the budget into a
// hard assertion for responses served purely from AVR blocks.
//
// With -mode storehot the loop reads a shared key space seeded once up
// front: each connection samples keys from a Zipfian popularity curve
// (a few keys absorb most reads) with periodic sequential scan phases
// over the whole space — the access pattern the summary-first read
// cache and its stride prefetcher are built for. The summary reports
// the cache hit rate and a hit-vs-miss latency split, classified per
// response from the X-AVR-Cache header avrd stamps when -cache-bytes
// is on.
//
// With -mode cluster the loop targets an avrrouter instead: each
// connection owns -batch keys and loops batched mput→mget round-trips
// (/v1/store/mput, /v1/store/mget), bound-checking every returned
// value. Because the check is client-side at t1, a node killed mid-run
// must not produce a single corrupt count if the router's replication
// and read-any failover work — the smoke test leans on exactly this.
//
// Every summary also breaks server-side latency down by pipeline stage
// (queue wait, codec pool checkout, encode/decode kernel, segment I/O,
// lock wait, query walk), rebuilt client-side from the X-AVR-Stage-*
// headers the daemon stamps on each response — so one load run shows
// where the p99 actually goes.
//
// Exit status: 0 on a clean run; 1 when no request succeeded or any
// response mismatched the local codec / exceeded the error bound
// (corruption).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"avr"
	"avr/internal/cliutil"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/trace"
	"avr/internal/vec"
	"avr/internal/workloads"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "avrd address (host:port)")
	addrFile := flag.String("addr-file", "", "read the avrd address from this file (written by avrd -addr-file)")
	conc := flag.Int("c", 32, "concurrent connections")
	duration := flag.Duration("duration", 30*time.Second, "load duration")
	values := flag.Int("values", 4096, "values per request")
	dist := flag.String("dist", "heat", "value distribution: "+strings.Join(workloads.Distributions(), ", "))
	width := flag.Int("width", 32, "value width in bits: 32 or 64")
	verify := flag.Bool("verify", true, "check every response byte-for-byte against a local codec")
	mode := flag.String("mode", "codec", "traffic shape: codec (encode→decode), store (put→get against /v1/store), storehot (Zipfian re-reads of a shared key space, cache hit-rate report), query (compressed-domain queries against /v1/store/query), or cluster (batched mput→mget against an avrrouter)")
	batch := flag.Int("batch", 8, "cluster mode: keys per batched mput/mget request")
	hotKeys := flag.Int("hotkeys", 64, "storehot mode: distinct keys in the shared space")
	maxTraffic := flag.Float64("maxtraffic", 0, "query mode: fail pure-AVR aggregate responses whose bytes_touched/bytes_total exceeds this fraction (0 = report only)")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON (for recorded baselines)")
	var t1 float64
	cliutil.RegisterT1(flag.CommandLine, &t1)
	flag.Parse()

	if *addrFile != "" {
		b, err := os.ReadFile(*addrFile)
		if err != nil {
			cliutil.Fatal(err)
		}
		*addr = strings.TrimSpace(string(b))
	}
	if *width != 32 && *width != 64 {
		cliutil.Fatal(fmt.Errorf("bad -width %d: want 32 or 64", *width))
	}
	switch *mode {
	case "codec", "store", "storehot", "query", "cluster":
	default:
		cliutil.Fatal(fmt.Errorf("bad -mode %q: want codec, store, storehot, query or cluster", *mode))
	}
	if *mode == "cluster" && *batch < 1 {
		cliutil.Fatal(fmt.Errorf("bad -batch %d: want >= 1", *batch))
	}
	if *mode == "storehot" && *hotKeys < 2 {
		cliutil.Fatal(fmt.Errorf("bad -hotkeys %d: want >= 2", *hotKeys))
	}
	base := "http://" + *addr

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * *conc,
			MaxIdleConnsPerHost: 2 * *conc,
		},
	}

	// One dataset and local-codec expectation per connection, prepared
	// before the clock starts.
	specs := make([]*workerSpec, *conc)
	for i := range specs {
		sp, err := newWorkerSpec(*dist, *values, *width, t1, uint64(i)+1)
		if err != nil {
			cliutil.Fatal(err)
		}
		sp.key = fmt.Sprintf("load-%d", i)
		specs[i] = sp
	}

	// storehot reads a shared key space: one spec per key, seeded with a
	// put each before the clock starts so the run measures reads only.
	var keySpace []*workerSpec
	if *mode == "storehot" {
		keySpace = make([]*workerSpec, *hotKeys)
		seedRes := &workerResult{}
		for k := range keySpace {
			sp, err := newWorkerSpec(*dist, *values, *width, t1, uint64(k)+1)
			if err != nil {
				cliutil.Fatal(err)
			}
			sp.key = fmt.Sprintf("hot-%d", k)
			keySpace[k] = sp
			putURL := fmt.Sprintf("%s/v1/store/put?key=%s&width=%d", base, sp.key, sp.width)
			if _, ok := sp.post(client, putURL, sp.payload, seedRes); !ok {
				cliutil.Fatal(fmt.Errorf("seeding storehot key %s failed", sp.key))
			}
		}
	}

	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	results := make([]*workerResult, *conc)
	start := time.Now()
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp *workerSpec) {
			defer wg.Done()
			switch *mode {
			case "store":
				results[i] = sp.runStore(client, base, deadline, *verify)
			case "storehot":
				results[i] = runStoreHot(client, base, deadline, *verify, keySpace, uint64(i)+1)
			case "query":
				results[i] = sp.runQuery(client, base, deadline, *maxTraffic)
			case "cluster":
				results[i] = sp.runCluster(client, base, deadline, *verify, *batch)
			default:
				results[i] = sp.run(client, base, deadline, *verify)
			}
		}(i, sp)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := summarize(results, elapsed, *conc, *values, *width, *dist, t1)
	sum.Mode = *mode
	if *mode == "cluster" {
		// Throughput counts batched round-trips; keys/s is the comparable
		// number against single-key store mode.
		sum.Batch = *batch
		sum.KeysPerSec = sum.Throughput * float64(*batch)
	}
	if *mode == "store" || *mode == "storehot" || *mode == "query" {
		// The wire accounting cannot see the stored size (puts and gets
		// both move raw bytes); ask the daemon for the achieved ratio.
		sum.EncodeRatio = fetchStoreRatio(client, base)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(sum)
	} else {
		sum.print(base)
	}
	if sum.OK == 0 || sum.Corrupt > 0 {
		os.Exit(1)
	}
}

// workerSpec is one connection's dataset plus the local-codec ground
// truth its responses are verified against.
type workerSpec struct {
	t1      float64
	t1eff   float64 // resolved threshold (default applied) for bound checks
	key     string  // store-mode key owned by this connection
	width   int
	vals    vec.Vec // the generated values
	payload []byte  // vals as raw little-endian bytes (encode request body)
	wantEnc []byte  // local codec encode of vals
	wantDec []byte  // raw little-endian bytes of the local decode of wantEnc
}

func newWorkerSpec(dist string, values, width int, t1 float64, seed uint64) (*workerSpec, error) {
	vals, err := cliutil.GenVec(dist, values, width, seed)
	if err != nil {
		return nil, err
	}
	// The daemon quantizes thresholds onto the codec-pool grid; the
	// local reference codec must do the same or byte-verification fails
	// for off-grid -t1 values.
	sp := &workerSpec{t1: t1, t1eff: server.QuantizeT1(t1), width: width, vals: vals, payload: vals.AppendLE(nil)}
	c := avr.NewCodec(sp.t1eff)
	if sp.wantEnc, err = vals.EncodeTo(c, nil); err != nil {
		return nil, err
	}
	dec, err := vec.Vec{Width: width}.DecodeAppend(c, sp.wantEnc)
	if err != nil {
		return nil, err
	}
	sp.wantDec = dec.AppendLE(nil)
	return sp, nil
}

// workerResult accumulates one connection's counts and latencies.
type workerResult struct {
	ok, shed, errs, corrupt int64
	bytesUp, bytesDown      int64
	touched, total          int64     // query mode: aggregate traffic account
	lat                     []float64 // seconds per successful request
	// storehot mode: per-response cache verdicts from X-AVR-Cache, with
	// the latency distribution split by verdict so the summary can show
	// what a hit buys over a miss.
	cacheHits, cacheMisses, cachePrefetch int64
	latHit, latMiss                       []float64
	// stageLat collects the per-stage durations (seconds) the daemon
	// advertises on each response via X-AVR-Stage-* headers, indexed by
	// trace.Stage.
	stageLat [trace.NumStages][]float64
}

// recordStages harvests the per-stage duration headers off one
// successful response.
func (res *workerResult) recordStages(h http.Header) {
	for st := 0; st < trace.NumStages; st++ {
		vals, ok := h[trace.HeaderKey(trace.Stage(st))]
		if !ok || len(vals) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(vals[0], 10, 64)
		if err != nil || ns <= 0 {
			continue
		}
		res.stageLat[st] = append(res.stageLat[st], float64(ns)/1e9)
	}
}

// run loops encode→decode against the daemon until the deadline.
func (sp *workerSpec) run(client *http.Client, base string, deadline time.Time, verify bool) *workerResult {
	res := &workerResult{}
	encURL := fmt.Sprintf("%s/v1/encode?width=%d", base, sp.width)
	if sp.t1 > 0 {
		encURL += fmt.Sprintf("&t1=%g", sp.t1)
	}
	decURL := base + "/v1/decode"
	for time.Now().Before(deadline) {
		enc, ok := sp.post(client, encURL, sp.payload, res)
		if !ok {
			continue
		}
		if verify && !bytes.Equal(enc, sp.wantEnc) {
			res.corrupt++
			continue
		}
		dec, ok := sp.post(client, decURL, enc, res)
		if !ok {
			continue
		}
		if verify && !bytes.Equal(dec, sp.wantDec) {
			res.corrupt++
		}
	}
	return res
}

// runStore loops put→get against the block store until the deadline,
// checking every returned value against the stored one at the error
// threshold. Lossless-fallback blocks come back exact, AVR blocks within
// t1, so one bound covers both.
func (sp *workerSpec) runStore(client *http.Client, base string, deadline time.Time, verify bool) *workerResult {
	res := &workerResult{}
	putURL := fmt.Sprintf("%s/v1/store/put?key=%s&width=%d", base, sp.key, sp.width)
	getURL := fmt.Sprintf("%s/v1/store/get?key=%s", base, sp.key)
	for time.Now().Before(deadline) {
		if _, ok := sp.post(client, putURL, sp.payload, res); !ok {
			continue
		}
		got, ok := sp.get(client, getURL, res)
		if !ok {
			continue
		}
		if verify && !sp.withinBound(got) {
			res.corrupt++
		}
	}
	return res
}

// runCluster loops batched mput→mget rounds against an avrrouter: this
// connection owns -batch keys, writes them all in one round-trip, reads
// them all back in another, and bound-checks every returned value. The
// client-side t1 check is what makes the router's read-any semantics
// testable: whichever replica served a key, the value must still be
// within the threshold of what was stored — so a mid-run node kill must
// produce zero corrupt counts if replication and failover work.
func (sp *workerSpec) runCluster(client *http.Client, base string, deadline time.Time, verify bool, batch int) *workerResult {
	res := &workerResult{}
	items := make([]server.BatchPutItem, batch)
	keys := make([]string, batch)
	for j := range items {
		keys[j] = fmt.Sprintf("%s-%d", sp.key, j)
		items[j] = server.BatchPutItem{Key: keys[j], Width: sp.width, Data: sp.payload}
	}
	pb, err := json.Marshal(server.BatchPutRequest{Items: items})
	if err != nil {
		res.errs++
		return res
	}
	gb, err := json.Marshal(server.BatchGetRequest{Keys: keys})
	if err != nil {
		res.errs++
		return res
	}
	mputURL := base + "/v1/store/mput"
	mgetURL := base + "/v1/store/mget"

	for time.Now().Before(deadline) {
		out, ok := sp.post(client, mputURL, pb, res)
		if !ok {
			continue
		}
		var pres server.BatchPutResult
		if json.Unmarshal(out, &pres) != nil {
			res.errs++
			continue
		}
		for _, pr := range pres.Results {
			if !pr.OK {
				// A per-key write failure is an availability event, not
				// corruption: the bound check below decides correctness.
				res.errs++
			}
		}

		out, ok = sp.post(client, mgetURL, gb, res)
		if !ok {
			continue
		}
		var gres server.BatchGetResult
		if json.Unmarshal(out, &gres) != nil {
			res.errs++
			continue
		}
		for _, gr := range gres.Results {
			if !gr.OK {
				res.errs++
				continue
			}
			if verify && !sp.withinBound(gr.Data) {
				res.corrupt++
			}
		}
	}
	return res
}

// runStoreHot loops reads over the shared storehot key space: mostly
// Zipf-sampled re-reads (rank 0 is the hottest key), with a full
// sequential scan of the space every scanEvery iterations — the phase
// mix the read cache and stride prefetcher are built for. Each response
// is bound-checked against the seeded payload and classified by its
// X-AVR-Cache verdict.
func runStoreHot(client *http.Client, base string, deadline time.Time, verify bool, keySpace []*workerSpec, seed uint64) *workerResult {
	const scanEvery = 40 // Zipf reads between sequential scan phases
	res := &workerResult{}
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(keySpace)-1))
	readOne := func(sp *workerSpec) {
		url := fmt.Sprintf("%s/v1/store/get?key=%s", base, sp.key)
		got, ok := sp.getCacheSplit(client, url, res)
		if ok && verify && !sp.withinBound(got) {
			res.corrupt++
		}
	}
	for i := 0; time.Now().Before(deadline); i++ {
		if i > 0 && i%scanEvery == 0 {
			for k := 0; k < len(keySpace) && time.Now().Before(deadline); k++ {
				readOne(keySpace[k])
			}
			continue
		}
		readOne(keySpace[zipf.Uint64()])
	}
	return res
}

// getCacheSplit is get plus the storehot bookkeeping: the X-AVR-Cache
// verdict counters and the hit-vs-miss latency split. A missing header
// (cache disabled server-side) counts as a miss, so the hit rate reads
// zero rather than lying.
func (sp *workerSpec) getCacheSplit(client *http.Client, url string, res *workerResult) ([]byte, bool) {
	t0 := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		res.errs++
		time.Sleep(10 * time.Millisecond)
		return nil, false
	}
	out, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK && rerr == nil:
		lat := time.Since(t0).Seconds()
		res.ok++
		res.lat = append(res.lat, lat)
		res.bytesDown += int64(len(out))
		res.recordStages(resp.Header)
		switch resp.Header.Get("X-AVR-Cache") {
		case "hit":
			res.cacheHits++
			res.latHit = append(res.latHit, lat)
		case "prefetch":
			res.cacheHits++
			res.cachePrefetch++
			res.latHit = append(res.latHit, lat)
		default:
			res.cacheMisses++
			res.latMiss = append(res.latMiss, lat)
		}
		return out, true
	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		res.shed++
		time.Sleep(time.Millisecond)
	default:
		res.errs++
	}
	return nil, false
}

// runQuery stores the vector once, then loops compressed-domain queries
// in rotation (aggregate → filter → downsample), checking every answer
// against ground truth recomputed from the generated values. A bound
// violation is corruption: the whole point of the query engine is that
// its error bars are guarantees, not estimates.
func (sp *workerSpec) runQuery(client *http.Client, base string, deadline time.Time, maxTraffic float64) *workerResult {
	res := &workerResult{}
	putURL := fmt.Sprintf("%s/v1/store/put?key=%s&width=%d", base, sp.key, sp.width)
	for {
		if _, ok := sp.post(client, putURL, sp.payload, res); ok {
			break
		}
		if !time.Now().Before(deadline) {
			return res
		}
	}
	// Don't let the seeding put distort the query latency distribution.
	res.ok, res.lat = 0, res.lat[:0]
	for st := range res.stageLat {
		res.stageLat[st] = res.stageLat[st][:0]
	}

	gt := store.NewTruth(sp.vals)
	bands := gt.Bands()
	aggURL := fmt.Sprintf("%s/v1/store/query?key=%s", base, sp.key)
	dsURL := fmt.Sprintf("%s/v1/store/query?key=%s&op=downsample", base, sp.key)

	for i := 0; time.Now().Before(deadline); i++ {
		switch i % 3 {
		case 0:
			body, ok := sp.get(client, aggURL, res)
			if !ok {
				continue
			}
			var agg store.AggregateResult
			if json.Unmarshal(body, &agg) != nil || gt.Aggregate(agg) != nil {
				res.corrupt++
				continue
			}
			res.touched += agg.BytesTouched
			res.total += agg.BytesTotal
			// The traffic budget only has teeth on vectors served purely
			// from AVR-compressed blocks: raw and lossless records are
			// full-size by construction.
			if maxTraffic > 0 && agg.BlocksRaw == 0 && agg.BlocksLossless == 0 &&
				float64(agg.BytesTouched) > maxTraffic*float64(agg.BytesTotal) {
				res.corrupt++
			}
		case 1:
			b := bands[(i/3)%len(bands)]
			url := fmt.Sprintf("%s/v1/store/query?key=%s&op=filter&lo=%g&hi=%g",
				base, sp.key, b[0], b[1])
			body, ok := sp.get(client, url, res)
			if !ok {
				continue
			}
			var fr store.FilterResult
			if json.Unmarshal(body, &fr) != nil || gt.Filter(fr) != nil {
				res.corrupt++
			}
		case 2:
			body, ok := sp.get(client, dsURL, res)
			if !ok {
				continue
			}
			var ds store.DownsampleResult
			if json.Unmarshal(body, &ds) != nil || gt.Downsample(ds) != nil {
				res.corrupt++
			}
		}
	}
	return res
}

// get fetches one stored vector, with the same outcome classification as
// post.
func (sp *workerSpec) get(client *http.Client, url string, res *workerResult) ([]byte, bool) {
	t0 := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		res.errs++
		time.Sleep(10 * time.Millisecond)
		return nil, false
	}
	out, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	// A 206 (torn vector) is corruption here: this process wrote the
	// vector moments ago and nothing crashed.
	case resp.StatusCode == http.StatusOK && rerr == nil:
		res.ok++
		res.lat = append(res.lat, time.Since(t0).Seconds())
		res.bytesDown += int64(len(out))
		res.recordStages(resp.Header)
		return out, true
	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		res.shed++
		time.Sleep(time.Millisecond)
	default:
		res.errs++
	}
	return nil, false
}

// withinBound checks a store get response against the put payload: as
// many bytes, every value within the quantized t1.
func (sp *workerSpec) withinBound(got []byte) bool {
	return len(got) == len(sp.payload) &&
		store.WithinT1(vec.Vec{Width: sp.width}.FromLE(got), sp.vals, sp.t1eff) == nil
}

// fetchStoreRatio reads the achieved compression ratio from the
// daemon's store stats (0 when unavailable).
func fetchStoreRatio(client *http.Client, base string) float64 {
	resp, err := client.Get(base + "/v1/store/stats")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	var st struct {
		AchievedRatio float64 `json:"achieved_ratio"`
	}
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return 0
	}
	return st.AchievedRatio
}

// post sends one request and classifies the outcome: (body, true) on
// 200, shed/error counting otherwise.
func (sp *workerSpec) post(client *http.Client, url string, body []byte, res *workerResult) ([]byte, bool) {
	t0 := time.Now()
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		res.errs++
		time.Sleep(10 * time.Millisecond) // avoid hot-looping a dead server
		return nil, false
	}
	out, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK && rerr == nil:
		res.ok++
		res.lat = append(res.lat, time.Since(t0).Seconds())
		res.bytesUp += int64(len(body))
		res.bytesDown += int64(len(out))
		res.recordStages(resp.Header)
		return out, true
	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		res.shed++
		time.Sleep(time.Millisecond) // brief backoff under shed
	default:
		res.errs++
	}
	return nil, false
}

// summary is the final report (and the -json document).
type summary struct {
	Addr        string  `json:"-"`
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	Duration    float64 `json:"duration_seconds"`
	Values      int     `json:"values_per_request"`
	Width       int     `json:"width_bits"`
	Dist        string  `json:"dist"`
	T1          float64 `json:"t1"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Errors      int64   `json:"errors"`
	Corrupt     int64   `json:"corrupt"`
	ShedRate    float64 `json:"shed_rate"`
	Throughput  float64 `json:"requests_per_second"`
	MBpsUp      float64 `json:"mb_per_second_up"`
	MBpsDown    float64 `json:"mb_per_second_down"`
	P50ms       float64 `json:"p50_ms"`
	P90ms       float64 `json:"p90_ms"`
	P99ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	EncodeRatio float64 `json:"encode_ratio"`
	// Cluster mode: keys per batched request, and batch-adjusted key
	// throughput (requests_per_second × batch_size) — the number
	// comparable against single-key store mode.
	Batch      int     `json:"batch_size,omitempty"`
	KeysPerSec float64 `json:"keys_per_second,omitempty"`
	// Storehot mode: per-response cache verdicts (X-AVR-Cache) and the
	// latency split between cache hits and misses.
	CacheHits     int64   `json:"cache_hits,omitempty"`
	CacheMisses   int64   `json:"cache_misses,omitempty"`
	CachePrefetch int64   `json:"cache_prefetch,omitempty"`
	CacheHitRate  float64 `json:"cache_hit_rate,omitempty"`
	HitP50ms      float64 `json:"hit_p50_ms,omitempty"`
	HitP99ms      float64 `json:"hit_p99_ms,omitempty"`
	MissP50ms     float64 `json:"miss_p50_ms,omitempty"`
	MissP99ms     float64 `json:"miss_p99_ms,omitempty"`
	// Query mode: encoded bytes the executor read vs the raw bytes its
	// aggregate responses covered, and their ratio.
	QueryBytesTouched int64   `json:"query_bytes_touched,omitempty"`
	QueryBytesTotal   int64   `json:"query_bytes_total,omitempty"`
	QueryTraffic      float64 `json:"query_traffic,omitempty"`
	// Stages breaks server-side latency down by pipeline stage, built
	// from the X-AVR-Stage-* headers on every successful response. Keys
	// are the trace stage wire names; stages the traffic never touched
	// are omitted.
	Stages map[string]loadStage `json:"stages,omitempty"`
}

// loadStage is one pipeline stage's latency digest in the summary.
type loadStage struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50ms  float64 `json:"p50_ms"`
	P99ms  float64 `json:"p99_ms"`
}

func summarize(results []*workerResult, elapsed time.Duration, conc, values, width int, dist string, t1 float64) summary {
	s := summary{
		Concurrency: conc, Duration: elapsed.Seconds(),
		Values: values, Width: width, Dist: dist, T1: t1,
	}
	var lat, latHit, latMiss []float64
	var stageLat [trace.NumStages][]float64
	var up, down int64
	for _, r := range results {
		s.OK += r.ok
		s.Shed += r.shed
		s.Errors += r.errs
		s.Corrupt += r.corrupt
		up += r.bytesUp
		down += r.bytesDown
		s.QueryBytesTouched += r.touched
		s.QueryBytesTotal += r.total
		s.CacheHits += r.cacheHits
		s.CacheMisses += r.cacheMisses
		s.CachePrefetch += r.cachePrefetch
		lat = append(lat, r.lat...)
		latHit = append(latHit, r.latHit...)
		latMiss = append(latMiss, r.latMiss...)
		for st := range r.stageLat {
			stageLat[st] = append(stageLat[st], r.stageLat[st]...)
		}
	}
	for st, samples := range stageLat {
		if len(samples) == 0 {
			continue
		}
		sort.Float64s(samples)
		var sum float64
		for _, v := range samples {
			sum += v
		}
		if s.Stages == nil {
			s.Stages = make(map[string]loadStage)
		}
		s.Stages[trace.Stage(st).String()] = loadStage{
			Count:  int64(len(samples)),
			MeanMs: 1000 * sum / float64(len(samples)),
			P50ms:  1000 * percentile(samples, 0.50),
			P99ms:  1000 * percentile(samples, 0.99),
		}
	}
	if s.QueryBytesTotal > 0 {
		s.QueryTraffic = float64(s.QueryBytesTouched) / float64(s.QueryBytesTotal)
	}
	total := s.OK + s.Shed + s.Errors
	if total > 0 {
		s.ShedRate = float64(s.Shed) / float64(total)
	}
	if s.Duration > 0 {
		s.Throughput = float64(s.OK) / s.Duration
		s.MBpsUp = float64(up) / 1e6 / s.Duration
		s.MBpsDown = float64(down) / 1e6 / s.Duration
	}
	sort.Float64s(lat)
	s.P50ms = 1000 * percentile(lat, 0.50)
	s.P90ms = 1000 * percentile(lat, 0.90)
	s.P99ms = 1000 * percentile(lat, 0.99)
	if len(lat) > 0 {
		s.MaxMs = 1000 * lat[len(lat)-1]
	}
	if s.CacheHits+s.CacheMisses > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
		sort.Float64s(latHit)
		sort.Float64s(latMiss)
		s.HitP50ms = 1000 * percentile(latHit, 0.50)
		s.HitP99ms = 1000 * percentile(latHit, 0.99)
		s.MissP50ms = 1000 * percentile(latMiss, 0.50)
		s.MissP99ms = 1000 * percentile(latMiss, 0.99)
	}
	// Achieved ratio from the wire accounting. Per OK request the mean
	// bytes moved is (up+down)/OK; an encode leg moves payload+enc and a
	// decode leg enc+payload, so that mean is payload+enc and the
	// achieved ratio is payload/enc.
	if down > 0 && up > 0 && s.OK > 0 {
		perReq := float64(up+down) / float64(s.OK)
		payload := float64(values * width / 8)
		if enc := perReq - payload; enc > 0 {
			s.EncodeRatio = payload / enc
		}
	}
	return s
}

// percentile returns the p-quantile of sorted (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (s summary) print(base string) {
	fmt.Printf("avrload: %s mode, %.1fs @ %d conns against %s (%d × fp%d, dist %s, t1 %g)\n",
		s.Mode, s.Duration, s.Concurrency, base, s.Values, s.Width, s.Dist, s.T1)
	fmt.Printf("  requests:   %d ok, %d shed (%.2f%%), %d errors, %d corrupt\n",
		s.OK, s.Shed, 100*s.ShedRate, s.Errors, s.Corrupt)
	fmt.Printf("  throughput: %.1f req/s, %.1f MB/s up, %.1f MB/s down\n",
		s.Throughput, s.MBpsUp, s.MBpsDown)
	if s.Batch > 0 {
		fmt.Printf("  batching:   %d keys/request → %.1f keys/s\n", s.Batch, s.KeysPerSec)
	}
	fmt.Printf("  latency:    p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms\n",
		s.P50ms, s.P90ms, s.P99ms, s.MaxMs)
	for st := 0; st < trace.NumStages; st++ {
		name := trace.Stage(st).String()
		d, ok := s.Stages[name]
		if !ok {
			continue
		}
		fmt.Printf("  stage %-9s p50 %.3fms  p99 %.3fms  mean %.3fms  (n=%d)\n",
			name+":", d.P50ms, d.P99ms, d.MeanMs, d.Count)
	}
	if s.CacheHits+s.CacheMisses > 0 {
		fmt.Printf("  cache:      %.1f%% hit (%d hit / %d miss, %d via prefetch)\n",
			100*s.CacheHitRate, s.CacheHits, s.CacheMisses, s.CachePrefetch)
		fmt.Printf("  hit  lat:   p50 %.3fms  p99 %.3fms\n", s.HitP50ms, s.HitP99ms)
		fmt.Printf("  miss lat:   p50 %.3fms  p99 %.3fms\n", s.MissP50ms, s.MissP99ms)
	}
	if s.EncodeRatio > 0 {
		if s.Mode == "store" || s.Mode == "storehot" || s.Mode == "query" {
			fmt.Printf("  ratio:      %.2f:1 achieved on disk (store stats)\n", s.EncodeRatio)
		} else {
			fmt.Printf("  ratio:      %.2f:1 achieved on the encode path\n", s.EncodeRatio)
		}
	}
	if s.QueryBytesTotal > 0 {
		fmt.Printf("  traffic:    aggregates touched %d of %d raw bytes (%.4f)\n",
			s.QueryBytesTouched, s.QueryBytesTotal, s.QueryTraffic)
	}
	switch {
	case s.Corrupt > 0 && s.Mode == "query":
		fmt.Printf("  VERIFY FAILED: %d query responses beyond their error bound\n", s.Corrupt)
	case s.Corrupt > 0 && (s.Mode == "store" || s.Mode == "storehot" || s.Mode == "cluster"):
		fmt.Printf("  VERIFY FAILED: %d gets beyond the t1 bound\n", s.Corrupt)
	case s.Corrupt > 0:
		fmt.Printf("  VERIFY FAILED: %d responses differ from the direct codec\n", s.Corrupt)
	case s.OK == 0:
		fmt.Println("  FAILED: no successful requests")
	case s.Mode == "query":
		fmt.Println("  verify:     every query answer within its reported error bound")
	case s.Mode == "store" || s.Mode == "storehot" || s.Mode == "cluster":
		fmt.Println("  verify:     every get within the t1 bound of its put")
	default:
		fmt.Println("  verify:     all responses byte-identical to the direct codec")
	}
}
