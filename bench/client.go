package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/trace"
)

// batchKeys is the mput/mget batch size.
const batchKeys = 8

// boundCheckEvery: during a timed phase every response is status- and
// length-checked and every 16th is bound-checked per value; the
// read-back after the run bound-checks every key.
const boundCheckEvery = 16

// Query kinds, in the rotation read_cold uses.
const (
	queryAggregate = iota
	queryFilter
	queryDownsample
)

var queryNames = [3]string{"query_aggregate", "query_filter", "query_downsample"}

// target is where a caller sends a request: a base URL, the tier that
// answers there (for failure accounting) and the rung its spans carry.
type target struct {
	base string
	tier string // "avrd" or "router"
	rung string
}

// account is what one caller saw: latencies and cycles by op name,
// values moved per second, bytes on the wire, and every failure by
// class.
type account struct {
	attempted int
	failed    int
	fails     map[string]int // "tier: reason" → count

	lat    map[string][]float64 // op name → latencies, ms
	cycles map[string][]cycle   // op name → cycles of the timed phase
	perSec []int64              // values moved per second of the timed phase
	t0     time.Time            // start of the timed phase; zero outside one
	last   time.Time            // when this caller's previous op completed

	values     int64 // values stored, returned or covered by successful ops
	wireBytes  int64 // request + response body bytes
	verifyNs   int64 // time spent checking responses
	storedB    int64 // Σ stored bytes the tiers reported for puts
	replicas   int64 // Σ replica acks reported for puts through the router
	replicaPut int64 // puts that reported a replica count
	keysSent   int64 // keys sent in batches
	keyErrors  int64 // batch keys answered ok:false
	errSum     float64
	errN       int64
	lockwaitUs []float64 // X-AVR-Stage-lockwait of every response that carried it
}

// cycle is one turn of a closed loop: the time from the caller's
// previous op completing to this one completing — the request, the
// checks on its response and the generator's own work — and the values
// it moved.
type cycle struct {
	s      float64
	values int
}

func newAccount() *account {
	return &account{fails: map[string]int{}, lat: map[string][]float64{}, cycles: map[string][]cycle{}}
}

// startTimed opens the timed phase at t0.
func (a *account) startTimed(t0 time.Time) { a.t0, a.last = t0, t0 }

func (a *account) fail(tier, reason string) {
	a.failed++
	a.fails[tier+": "+reason]++
}

// done books a successful op.
func (a *account) done(name string, start, end time.Time, values int, wire int) {
	if !a.t0.IsZero() {
		sec := int(end.Sub(a.t0) / time.Second)
		for len(a.perSec) <= sec {
			a.perSec = append(a.perSec, 0)
		}
		a.perSec[sec] += int64(values)
		a.cycles[name] = append(a.cycles[name], cycle{s: end.Sub(a.last).Seconds(), values: values})
		a.last = end
	}
	a.lat[name] = append(a.lat[name], float64(end.Sub(start))/1e6)
	a.values += int64(values)
	a.wireBytes += int64(wire)
}

// merge folds b into a. Seconds add position by position.
func (a *account) merge(b *account) {
	a.attempted += b.attempted
	a.failed += b.failed
	for k, v := range b.fails {
		a.fails[k] += v
	}
	for k, v := range b.lat {
		a.lat[k] = append(a.lat[k], v...)
	}
	for k, v := range b.cycles {
		a.cycles[k] = append(a.cycles[k], v...)
	}
	for i, w := range b.perSec {
		for len(a.perSec) <= i {
			a.perSec = append(a.perSec, 0)
		}
		a.perSec[i] += w
	}
	a.values += b.values
	a.wireBytes += b.wireBytes
	a.verifyNs += b.verifyNs
	a.storedB += b.storedB
	a.replicas += b.replicas
	a.replicaPut += b.replicaPut
	a.keysSent += b.keysSent
	a.keyErrors += b.keyErrors
	a.errSum += b.errSum
	a.errN += b.errN
	a.lockwaitUs = append(a.lockwaitUs, b.lockwaitUs...)
}

// pooled returns the latencies, in ms, of the named ops together.
func (a *account) pooled(names []string) []float64 {
	var out []float64
	for _, n := range names {
		out = append(out, a.lat[n]...)
	}
	return out
}

// failureTable renders the failures by (tier, reason), most frequent
// first.
func (a *account) failureTable() string {
	keys := make([]string, 0, len(a.fails))
	for k := range a.fails {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if a.fails[keys[i]] != a.fails[keys[j]] {
			return a.fails[keys[i]] > a.fails[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "failed ops by (tier that answered: check that failed)\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %8d  %s\n", a.fails[k], k)
	}
	return b.String()
}

// caller is one closed-loop client: one keep-alive connection, its own
// buffers, its own account.
type caller struct {
	hc   *http.Client
	t1q  float64
	rec  *recorder
	acct *account

	fixedOp int // ladder: the op id the next calls' spans carry; 0 = allocate one
	ref     refClock

	resp   bytes.Buffer // response body, reused
	req    bytes.Buffer // batch request body, reused
	checks int          // responses seen, for the every-16th bound check
	bands  int          // filter band rotation
}

func newCaller(rec *recorder) *caller {
	return &caller{
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		t1q:  server.QuantizeT1(0),
		rec:  rec,
		acct: newAccount(),
	}
}

func (c *caller) close() { c.hc.CloseIdleConnections() }

// opID returns the id the next call's spans carry.
func (c *caller) opID() int {
	if c.fixedOp != 0 {
		return c.fixedOp
	}
	return c.rec.op()
}

// do sends one request and reads the whole response into c.resp. It
// returns the response (body already consumed) or nil after booking the
// failure.
func (c *caller) do(t target, method, url string, body []byte) *http.Response {
	c.acct.attempted++
	var rd io.Reader // a nil *bytes.Reader would not be a nil io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		c.acct.fail(t.tier, "transport: "+err.Error())
		return nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.acct.fail(t.tier, "transport: "+clip(err.Error()))
		time.Sleep(time.Millisecond) // do not hot-loop a dead tier
		return nil
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.acct.fail(t.tier, "transport: reading body: "+clip(err.Error()))
		return nil
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return resp
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		c.acct.fail(t.tier, fmt.Sprintf("shed %d", resp.StatusCode))
		time.Sleep(time.Millisecond)
	case resp.StatusCode >= 500:
		c.acct.fail(t.tier, fmt.Sprintf("5xx %d: %s", resp.StatusCode, clip(c.resp.String())))
	default:
		c.acct.fail(t.tier, fmt.Sprintf("status %d: %s", resp.StatusCode, clip(c.resp.String())))
	}
	return nil
}

// clip bounds an error string so the failure table keeps few rows.
func clip(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 80 {
		s = s[:80]
	}
	return s
}

// finish books a successful op: latency, span, and the stage headers of
// its response.
func (c *caller) finish(t target, op int, name string, start, end time.Time, values, wire int, h http.Header) {
	c.acct.done(name, start, end, values, wire)
	if v := h[trace.HeaderKey(trace.StageLock)]; len(v) > 0 {
		if ns, err := strconv.ParseInt(v[0], 10, 64); err == nil {
			c.acct.lockwaitUs = append(c.acct.lockwaitUs, float64(ns)/1e3)
		}
	}
	if c.rec == nil {
		return
	}
	c.rec.add(op, t.rung, name, start, end, values, wire)
	for st := 0; st < trace.NumStages; st++ {
		if v := h[trace.HeaderKey(trace.Stage(st))]; len(v) > 0 {
			if ns, err := strconv.ParseInt(v[0], 10, 64); err == nil {
				c.rec.addStage(op, t.rung, trace.Stage(st).String(), start, time.Duration(ns))
			}
		}
	}
}

// dueCheck reports whether this response gets the per-value bound check.
func (c *caller) dueCheck(all bool) bool {
	c.checks++
	return all || c.checks%boundCheckEvery == 0
}

// verifyValues bound-checks got against k and books the error sum.
func (c *caller) verifyValues(t target, k *keyInfo, got []byte) bool {
	v0 := time.Now()
	errSum, n, ok := k.checkBound(got, c.t1q)
	c.acct.verifyNs += int64(time.Since(v0))
	if !ok {
		c.acct.fail(t.tier, "bound")
		return false
	}
	c.acct.errSum += errSum
	c.acct.errN += int64(n)
	return true
}

// put stores one key.
func (c *caller) put(t target, k *keyInfo) bool {
	op := c.opID()
	url := t.base + "/v1/store/put?key=" + k.name
	if k.width == 64 {
		url += "&width=64"
	}
	start := time.Now()
	resp := c.do(t, http.MethodPut, url, k.raw)
	end := time.Now()
	if resp == nil {
		return false
	}
	var pr store.PutResult
	if err := json.Unmarshal(c.resp.Bytes(), &pr); err != nil || pr.Values != k.nvals {
		c.acct.fail(t.tier, "length")
		return false
	}
	c.acct.storedB += pr.StoredBytes
	if r := resp.Header.Get("X-AVR-Replicas"); r != "" {
		if n, err := strconv.Atoi(r); err == nil {
			c.acct.replicas += int64(n)
			c.acct.replicaPut++
		}
	}
	c.finish(t, op, "put"+k.class(), start, end, k.nvals, len(k.raw)+c.resp.Len(), resp.Header)
	return true
}

// get reads one key back; all forces the per-value check.
func (c *caller) get(t target, k *keyInfo, all bool) bool {
	op := c.opID()
	start := time.Now()
	resp := c.do(t, http.MethodGet, t.base+"/v1/store/get?key="+k.name, nil)
	end := time.Now()
	if resp == nil {
		return false
	}
	if c.resp.Len() != len(k.raw) {
		c.acct.fail(t.tier, "length")
		return false
	}
	if c.dueCheck(all) && !c.verifyValues(t, k, c.resp.Bytes()) {
		return false
	}
	c.finish(t, op, "get"+k.class(), start, end, k.nvals, c.resp.Len(), resp.Header)
	return true
}

// query runs one compressed-domain query and checks the answer against
// ground truth within the answer's own bounds.
func (c *caller) query(t target, k *keyInfo, kind int) bool {
	op := c.opID()
	url := t.base + "/v1/store/query?key=" + k.name
	var lo, hi float64
	switch kind {
	case queryFilter:
		span := k.truth.max - k.truth.min
		switch c.bands % 3 {
		case 0:
			lo, hi = k.truth.min, k.truth.max
		case 1:
			lo, hi = k.truth.min+span/4, k.truth.max-span/4
		case 2:
			lo, hi = k.truth.min+span/2.1, k.truth.min+span/1.9
		}
		c.bands++
		// 'g' can print "1e+06", and a bare "+" in a query is a space.
		url += "&op=filter&lo=" + neturl.QueryEscape(strconv.FormatFloat(lo, 'g', -1, 64)) +
			"&hi=" + neturl.QueryEscape(strconv.FormatFloat(hi, 'g', -1, 64))
	case queryDownsample:
		url += "&op=downsample"
	}
	start := time.Now()
	resp := c.do(t, http.MethodGet, url, nil)
	end := time.Now()
	if resp == nil {
		return false
	}
	v0 := time.Now()
	ok := checkQuery(k, kind, c.resp.Bytes())
	c.acct.verifyNs += int64(time.Since(v0))
	if !ok {
		c.acct.fail(t.tier, "query-bound "+queryNames[kind])
		return false
	}
	c.finish(t, op, queryNames[kind], start, end, k.nvals, c.resp.Len(), resp.Header)
	return true
}

// boundTol widens a reported bound by the comparison's own float slack.
func boundTol(b float64) float64 { return b*(1+1e-9) + 1e-300 }

// checkQuery verifies one query answer the way cmd/avrload does: the
// exact answer recomputed from the generated values must lie within the
// bounds the answer itself reports.
func checkQuery(k *keyInfo, kind int, body []byte) bool {
	gt := k.truth
	switch kind {
	case queryAggregate:
		var a store.AggregateResult
		if json.Unmarshal(body, &a) != nil || !a.Complete || a.Count != int64(k.nvals) {
			return false
		}
		if math.Abs(a.Sum-gt.sum) > boundTol(a.ErrorBound) {
			return false
		}
		if math.Abs(a.Mean-gt.sum/float64(a.Count)) > boundTol(a.MeanErrorBound) {
			return false
		}
		slack := 1e-9*math.Abs(gt.min) + 1e-300
		if a.Min > gt.min+slack || gt.min > a.Min+a.MinErrorBound+slack {
			return false
		}
		slack = 1e-9*math.Abs(gt.max) + 1e-300
		return a.Max >= gt.max-slack && gt.max >= a.Max-a.MaxErrorBound-slack
	case queryFilter:
		var f store.FilterResult
		if json.Unmarshal(body, &f) != nil || !f.Complete {
			return false
		}
		exact := k.countIn(f.Lo, f.Hi)
		return f.MatchesMin <= exact && exact <= f.MatchesMax &&
			f.Matches-exact <= f.ErrorBound && exact-f.Matches <= f.ErrorBound
	default:
		var d store.DownsampleResult
		if json.Unmarshal(body, &d) != nil || !d.Complete ||
			len(d.Points) != len(gt.points) || len(d.Bounds) != len(d.Points) {
			return false
		}
		for g := range d.Points {
			if math.Abs(d.Points[g]-gt.points[g]) > boundTol(d.Bounds[g]) {
				return false
			}
		}
		return true
	}
}

// mput stores a batch. The body is written by hand into a reused buffer:
// it is the server's JSON+base64 framing byte for byte, without the
// generator allocating a megabyte per op inside the tiers' GC.
func (c *caller) mput(t target, ks []*keyInfo) bool {
	op := c.opID()
	c.req.Reset()
	c.req.WriteString(`{"items":[`)
	values := 0
	for i, k := range ks {
		if i > 0 {
			c.req.WriteByte(',')
		}
		fmt.Fprintf(&c.req, `{"key":%q,"width":%d,"data":"`, k.name, k.width)
		n := base64.StdEncoding.EncodedLen(len(k.raw))
		c.req.Grow(n)
		b := c.req.AvailableBuffer()[:n]
		base64.StdEncoding.Encode(b, k.raw)
		c.req.Write(b)
		c.req.WriteString(`"}`)
		values += k.nvals
	}
	c.req.WriteString("]}")
	start := time.Now()
	resp := c.do(t, http.MethodPost, t.base+"/v1/store/mput", c.req.Bytes())
	end := time.Now()
	if resp == nil {
		return false
	}
	var res server.BatchPutResult
	if err := json.Unmarshal(c.resp.Bytes(), &res); err != nil || len(res.Results) != len(ks) {
		c.acct.fail(t.tier, "length")
		return false
	}
	c.acct.keysSent += int64(len(ks))
	ok := true
	for i, r := range res.Results {
		switch {
		case !r.OK:
			c.acct.keyErrors++
			c.acct.fail(t.tier, "mput key ok:false: "+clip(r.Error))
			ok = false
		case r.Key != ks[i].name || r.Values != ks[i].nvals:
			c.acct.fail(t.tier, "length")
			ok = false
		default:
			if r.Ratio > 0 {
				c.acct.storedB += int64(float64(len(ks[i].raw)) / r.Ratio)
			}
			if r.Replicas > 0 {
				c.acct.replicas += int64(r.Replicas)
				c.acct.replicaPut++
			}
		}
	}
	if !ok {
		return false
	}
	c.finish(t, op, "mput", start, end, values, c.req.Len()+c.resp.Len(), resp.Header)
	return true
}

// mget reads a batch back.
func (c *caller) mget(t target, ks []*keyInfo, all bool) bool {
	op := c.opID()
	c.req.Reset()
	c.req.WriteString(`{"keys":[`)
	values := 0
	for i, k := range ks {
		if i > 0 {
			c.req.WriteByte(',')
		}
		fmt.Fprintf(&c.req, "%q", k.name)
		values += k.nvals
	}
	c.req.WriteString("]}")
	start := time.Now()
	resp := c.do(t, http.MethodPost, t.base+"/v1/store/mget", c.req.Bytes())
	end := time.Now()
	if resp == nil {
		return false
	}
	var res server.BatchGetResult
	if err := json.Unmarshal(c.resp.Bytes(), &res); err != nil || len(res.Results) != len(ks) {
		c.acct.fail(t.tier, "length")
		return false
	}
	c.acct.keysSent += int64(len(ks))
	check := c.dueCheck(all)
	ok := true
	for i, r := range res.Results {
		switch {
		case !r.OK:
			c.acct.keyErrors++
			c.acct.fail(t.tier, "mget key ok:false: "+clip(r.Error))
			ok = false
		case r.Key != ks[i].name || !r.Complete || r.Width != ks[i].width || len(r.Data) != len(ks[i].raw):
			c.acct.fail(t.tier, "length")
			ok = false
		case check && !c.verifyValues(t, ks[i], r.Data):
			ok = false
		}
	}
	if !ok {
		return false
	}
	c.finish(t, op, "mget", start, end, values, c.req.Len()+c.resp.Len(), resp.Header)
	return true
}
