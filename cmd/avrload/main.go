// Command avrload drives an avrd or avrrouter with closed-loop
// concurrent traffic and verifies every response: an end-to-end
// corruption check for the smokes and CI. It measures nothing. The
// serving metrics (latency, throughput, stages, wire bytes) are the
// bench/ module's workloads (BENCHMARK.json), and avrtop reads the stage
// quantiles off /metrics.
//
// Usage:
//
//	avrload -addr localhost:8080 -c 32 -duration 30s -values 4096 -dist heat
//	avrload -addr-file /tmp/avrd.addr -c 8 -duration 2s   # scripted (CI smoke)
//
// Each connection generates its dataset (internal/workloads generators)
// before the clock starts. -mode picks the traffic and the check:
//
//   - codec: encode→decode loops, every response compared byte for byte
//     with a local Codec at the daemon's quantized threshold.
//   - store: each connection owns one key and loops put→get against
//     /v1/store; every get is within t1 of its put (store.WithinT1).
//   - storehot: Zipfian re-reads of a shared key space seeded once, with
//     periodic sequential scans; every get is checked as in store mode
//     and counted by its X-AVR-Cache verdict (cache_hits, cache_misses).
//   - query: each connection stores its vector once, then rotates
//     aggregate, filter and downsample queries, each checked against
//     ground truth from the generated values (store.Truth). -maxtraffic
//     fails a pure-AVR aggregate that touched more than that fraction of
//     the raw bytes.
//   - cluster: against an avrrouter, each connection owns -batch keys
//     and loops batched mput→mget; every returned value is checked as in
//     store mode, so a shard killed mid-run must not produce a single
//     corrupt count if replication and read-any failover work.
//
// Output is one JSON document: mode, ok, shed, errors, corrupt,
// cache_hits, cache_misses and cache_hit_rate.
//
// Exit status: 0 on a clean run; 1 when no request succeeded or any
// response failed its check; 2 on a usage or setup error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"avr"
	"avr/internal/cliutil"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/vec"
	"avr/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, drives the load and writes the report to stdout; it
// returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("avrload", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "avrd or avrrouter address (host:port)")
	addrFile := fs.String("addr-file", "", "read the address from this file (written by avrd -addr-file)")
	conc := fs.Int("c", 32, "concurrent connections")
	duration := fs.Duration("duration", 30*time.Second, "load duration")
	values := fs.Int("values", 4096, "values per request")
	dist := fs.String("dist", "heat", "value distribution: "+strings.Join(workloads.Distributions(), ", "))
	width := fs.Int("width", 32, "value width in bits: 32 or 64")
	mode := fs.String("mode", "codec", "traffic shape: codec (encode→decode), store (put→get against /v1/store), storehot (Zipfian re-reads of a shared key space), query (compressed-domain queries against /v1/store/query), or cluster (batched mput→mget against an avrrouter)")
	batch := fs.Int("batch", 8, "cluster mode: keys per batched mput/mget request")
	hotKeys := fs.Int("hotkeys", 64, "storehot mode: distinct keys in the shared space")
	maxTraffic := fs.Float64("maxtraffic", 0, "query mode: fail pure-AVR aggregate responses whose bytes_touched/bytes_total exceeds this fraction (0 = no budget)")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "avrload:", err)
		return 2
	}

	if *addrFile != "" {
		b, err := os.ReadFile(*addrFile)
		if err != nil {
			return fail(err)
		}
		*addr = strings.TrimSpace(string(b))
	}
	switch {
	case *width != 32 && *width != 64:
		return fail(fmt.Errorf("bad -width %d: want 32 or 64", *width))
	case *conc < 1:
		return fail(fmt.Errorf("bad -c %d: want >= 1", *conc))
	case *mode == "cluster" && *batch < 1:
		return fail(fmt.Errorf("bad -batch %d: want >= 1", *batch))
	case *mode == "storehot" && *hotKeys < 2:
		return fail(fmt.Errorf("bad -hotkeys %d: want >= 2", *hotKeys))
	}
	switch *mode {
	case "codec", "store", "storehot", "query", "cluster":
	default:
		return fail(fmt.Errorf("bad -mode %q: want codec, store, storehot, query or cluster", *mode))
	}

	l := &loader{
		base: "http://" + *addr,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        2 * *conc,
				MaxIdleConnsPerHost: 2 * *conc,
			},
		},
	}
	defer l.client.CloseIdleConnections()
	specs := func(n int, prefix string) ([]*workerSpec, error) {
		out := make([]*workerSpec, n)
		for i := range out {
			sp, err := newWorkerSpec(*dist, *values, *width, t1, uint64(i)+1)
			if err != nil {
				return nil, err
			}
			sp.key = fmt.Sprintf("%s-%d", prefix, i)
			out[i] = sp
		}
		return out, nil
	}
	workers, err := specs(*conc, "load")
	if err != nil {
		return fail(err)
	}
	// storehot reads a shared key space, seeded with one put per key
	// before the clock starts.
	var keySpace []*workerSpec
	if *mode == "storehot" {
		if keySpace, err = specs(*hotKeys, "hot"); err != nil {
			return fail(err)
		}
		for _, sp := range keySpace {
			var seed counts
			if _, _, ok := seed.call(l.client, sp.putURL(l.base), sp.payload); !ok {
				return fail(fmt.Errorf("seeding storehot key %s failed", sp.key))
			}
		}
	}

	l.deadline = time.Now().Add(*duration)
	results := make([]counts, *conc)
	var wg sync.WaitGroup
	for i, sp := range workers {
		wg.Add(1)
		go func(c *counts, sp *workerSpec, seed uint64) {
			defer wg.Done()
			switch *mode {
			case "store":
				l.runStore(c, sp)
			case "storehot":
				l.runStoreHot(c, keySpace, seed)
			case "query":
				l.runQuery(c, sp, *maxTraffic)
			case "cluster":
				l.runCluster(c, sp, *batch)
			default:
				l.runCodec(c, sp)
			}
		}(&results[i], sp, uint64(i)+1)
	}
	wg.Wait()

	rep := report{Mode: *mode}
	for _, c := range results {
		rep.OK += c.ok
		rep.Shed += c.shed
		rep.Errors += c.errs
		rep.Corrupt += c.corrupt
		rep.CacheHits += c.cacheHits
		rep.CacheMisses += c.cacheMisses
	}
	if n := rep.CacheHits + rep.CacheMisses; n > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(n)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fail(err)
	}
	if rep.OK == 0 || rep.Corrupt > 0 {
		return 1
	}
	return 0
}

// report is the run's one output document. The cache fields count
// storehot reads and are zero in the other modes.
type report struct {
	Mode         string  `json:"mode"`
	OK           int64   `json:"ok"`
	Shed         int64   `json:"shed"`
	Errors       int64   `json:"errors"`
	Corrupt      int64   `json:"corrupt"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// counts is one connection's tally of outcomes.
type counts struct {
	ok, shed, errs, corrupt int64
	cacheHits, cacheMisses  int64
}

// call sends one request, a POST of body or a GET when body is nil, and
// classifies the outcome: on a 200 it returns the body and the response
// headers; a 429 or 503 counts as shed; a 206 counts as corruption (every
// key avrload reads it wrote this run, and a torn prefix of an
// acknowledged write is a broken promise); anything else counts as an
// error.
func (c *counts) call(client *http.Client, url string, body []byte) ([]byte, http.Header, bool) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = client.Get(url)
	} else {
		resp, err = client.Post(url, "application/octet-stream", bytes.NewReader(body))
	}
	if err != nil {
		c.errs++
		time.Sleep(10 * time.Millisecond) // avoid hot-looping a dead server
		return nil, nil, false
	}
	out, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK && rerr == nil:
		c.ok++
		return out, resp.Header, true
	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		c.shed++
		time.Sleep(time.Millisecond) // brief backoff under shed
	case resp.StatusCode == http.StatusPartialContent:
		c.corrupt++
	default:
		c.errs++
	}
	return nil, nil, false
}

// loader is what every connection shares: the client, the target and
// the end of the run.
type loader struct {
	client   *http.Client
	base     string
	deadline time.Time
}

func (l *loader) running() bool { return time.Now().Before(l.deadline) }

// workerSpec is one dataset plus the local-codec ground truth its
// responses are verified against.
type workerSpec struct {
	t1      float64
	t1eff   float64 // resolved threshold (default applied) for bound checks
	key     string  // store key owned by this connection (or hot key)
	width   int
	vals    vec.Vec // the generated values
	payload []byte  // vals as raw little-endian bytes (request body)
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

func (sp *workerSpec) putURL(base string) string {
	return fmt.Sprintf("%s/v1/store/put?key=%s&width=%d", base, sp.key, sp.width)
}

func (sp *workerSpec) getURL(base string) string {
	return fmt.Sprintf("%s/v1/store/get?key=%s", base, sp.key)
}

// withinBound checks a store get response against the put payload: as
// many bytes, every value within the quantized t1. Lossless-fallback
// blocks come back exact and AVR blocks within t1, so one bound covers
// both.
func (sp *workerSpec) withinBound(got []byte) bool {
	return len(got) == len(sp.payload) &&
		store.WithinT1(vec.Vec{Width: sp.width}.FromLE(got), sp.vals, sp.t1eff) == nil
}

// runCodec loops encode→decode, comparing both responses byte for byte
// with the local codec.
func (l *loader) runCodec(c *counts, sp *workerSpec) {
	encURL := fmt.Sprintf("%s/v1/encode?width=%d", l.base, sp.width)
	if sp.t1 > 0 {
		encURL += fmt.Sprintf("&t1=%g", sp.t1)
	}
	decURL := l.base + "/v1/decode"
	for l.running() {
		enc, _, ok := c.call(l.client, encURL, sp.payload)
		if !ok {
			continue
		}
		if !bytes.Equal(enc, sp.wantEnc) {
			c.corrupt++
			continue
		}
		dec, _, ok := c.call(l.client, decURL, enc)
		if ok && !bytes.Equal(dec, sp.wantDec) {
			c.corrupt++
		}
	}
}

// runStore loops put→get on the connection's own key, bound-checking
// every get.
func (l *loader) runStore(c *counts, sp *workerSpec) {
	putURL, getURL := sp.putURL(l.base), sp.getURL(l.base)
	for l.running() {
		if _, _, ok := c.call(l.client, putURL, sp.payload); !ok {
			continue
		}
		if got, _, ok := c.call(l.client, getURL, nil); ok && !sp.withinBound(got) {
			c.corrupt++
		}
	}
}

// runStoreHot loops reads over the shared key space: mostly Zipf-sampled
// re-reads (rank 0 is the hottest key), with a full sequential scan every
// scanEvery reads, the phase mix the read cache is built for. A response
// without an X-AVR-Cache verdict (cache off) counts as a miss, so the hit
// rate reads zero rather than lying.
func (l *loader) runStoreHot(c *counts, keySpace []*workerSpec, seed uint64) {
	const scanEvery = 40
	zipf := rand.NewZipf(rand.New(rand.NewSource(int64(seed))), 1.2, 1, uint64(len(keySpace)-1))
	readOne := func(sp *workerSpec) {
		got, h, ok := c.call(l.client, sp.getURL(l.base), nil)
		if !ok {
			return
		}
		if v := h.Get("X-AVR-Cache"); v == "hit" || v == "prefetch" {
			c.cacheHits++
		} else {
			c.cacheMisses++
		}
		if !sp.withinBound(got) {
			c.corrupt++
		}
	}
	for i := 0; l.running(); i++ {
		if i > 0 && i%scanEvery == 0 {
			for k := 0; k < len(keySpace) && l.running(); k++ {
				readOne(keySpace[k])
			}
			continue
		}
		readOne(keySpace[zipf.Uint64()])
	}
}

// runQuery stores the vector once, then rotates aggregate → filter →
// downsample queries, checking each answer against ground truth from the
// generated values: the query engine's error bars are guarantees, so a
// violation is corruption.
func (l *loader) runQuery(c *counts, sp *workerSpec, maxTraffic float64) {
	for {
		if _, _, ok := c.call(l.client, sp.putURL(l.base), sp.payload); ok {
			break
		}
		if !l.running() {
			return
		}
	}
	// The seeding put is not a query: a run whose queries all fail must
	// still report zero successes.
	c.ok = 0

	gt := store.NewTruth(sp.vals)
	bands := gt.Bands()
	aggURL := fmt.Sprintf("%s/v1/store/query?key=%s", l.base, sp.key)
	dsURL := aggURL + "&op=downsample"
	for i := 0; l.running(); i++ {
		switch i % 3 {
		case 0:
			body, _, ok := c.call(l.client, aggURL, nil)
			if !ok {
				continue
			}
			var agg store.AggregateResult
			if json.Unmarshal(body, &agg) != nil || gt.Aggregate(agg) != nil {
				c.corrupt++
				continue
			}
			// The traffic budget only has teeth on vectors served purely
			// from AVR-compressed blocks: raw and lossless records are
			// full-size by construction.
			if maxTraffic > 0 && agg.BlocksRaw == 0 && agg.BlocksLossless == 0 &&
				float64(agg.BytesTouched) > maxTraffic*float64(agg.BytesTotal) {
				c.corrupt++
			}
		case 1:
			b := bands[(i/3)%len(bands)]
			url := fmt.Sprintf("%s&op=filter&lo=%g&hi=%g", aggURL, b[0], b[1])
			body, _, ok := c.call(l.client, url, nil)
			if !ok {
				continue
			}
			var fr store.FilterResult
			if json.Unmarshal(body, &fr) != nil || gt.Filter(fr) != nil {
				c.corrupt++
			}
		case 2:
			body, _, ok := c.call(l.client, dsURL, nil)
			if !ok {
				continue
			}
			var ds store.DownsampleResult
			if json.Unmarshal(body, &ds) != nil || gt.Downsample(ds) != nil {
				c.corrupt++
			}
		}
	}
}

// runCluster loops batched mput→mget rounds against an avrrouter over
// the connection's batch keys, bound-checking every returned value.
// Whichever replica served a key, its values must be within t1 of what
// was stored: both replicas encode at the same quantized threshold.
func (l *loader) runCluster(c *counts, sp *workerSpec, batch int) {
	items := make([]server.BatchPutItem, batch)
	keys := make([]string, batch)
	for j := range items {
		keys[j] = fmt.Sprintf("%s-%d", sp.key, j)
		items[j] = server.BatchPutItem{Key: keys[j], Width: sp.width, Data: sp.payload}
	}
	// Marshalling strings, ints and byte slices cannot fail.
	pb, _ := json.Marshal(server.BatchPutRequest{Items: items})
	gb, _ := json.Marshal(server.BatchGetRequest{Keys: keys})
	mputURL, mgetURL := l.base+"/v1/store/mput", l.base+"/v1/store/mget"
	for l.running() {
		out, _, ok := c.call(l.client, mputURL, pb)
		if !ok {
			continue
		}
		var pres server.BatchPutResult
		if json.Unmarshal(out, &pres) != nil {
			c.errs++
			continue
		}
		for _, pr := range pres.Results {
			if !pr.OK {
				// A per-key write failure is an availability event, not
				// corruption: the bound check below decides correctness.
				c.errs++
			}
		}

		if out, _, ok = c.call(l.client, mgetURL, gb); !ok {
			continue
		}
		var gres server.BatchGetResult
		if json.Unmarshal(out, &gres) != nil {
			c.errs++
			continue
		}
		for _, gr := range gres.Results {
			switch {
			case !gr.OK:
				c.errs++
			case !sp.withinBound(gr.Data):
				c.corrupt++
			}
		}
	}
}
