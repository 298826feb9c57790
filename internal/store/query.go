package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"avr/internal/block"
	"avr/internal/compress"
	"avr/internal/fixed"
	"avr/internal/obs"
	"avr/internal/trace"
	"avr/internal/vec"
)

// Compressed-domain query executor. The AVR block format is itself a
// query accelerator: the summary line holds 16→1 sub-block averages
// with per-value error bounded by t1, so sums, means, min/max bounds,
// range filters and downsampled scans can be answered from the stored
// form — a fraction of the raw bytes — without reconstructing the
// blocks. A query is a consumer of readLocked's frame walk, like the
// Get decode and the cache fill: it is handed each of the key's frames
// whole, length- and CRC-verified, and reads the records in place —
// summary line always, bitmap + packed outliers when the record has
// them, the full 1 KiB payload only for raw (incompressible) records.
// Lossless-fallback blocks have no summary and are decoded exactly.
//
// Every approximate answer carries a rigorous error bound derived from
// the per-ref threshold: a non-outlier value v reconstructs to r with
// |v−r| ≤ t1·|v|, which inverts to |v−r| ≤ f·|r| for f = t1/(1−t1);
// outlier values are stored exactly. Bounds therefore hold against the
// exact answer computed from the original values (plus a small additive
// term for float64 accumulation and denormal flushes).

// Query byte accounting: BytesTotal is the raw (uncompressed) size of
// the values the query covered; BytesTouched is the stored bytes the
// executor read and verified, the frames it walked. Their ratio is the
// traffic reduction the compressed-domain path achieves over fetching
// the values.
type QueryStats struct {
	BytesTouched int64 `json:"bytes_touched"`
	BytesTotal   int64 `json:"bytes_total"`
	// Codec-block mix: AVR summary blocks answered from their summaries,
	// raw records inside AVR frames (exact, full payload visited), and
	// lossless-fallback store blocks (exact, whole-frame decode).
	BlocksAVR      int `json:"blocks_avr"`
	BlocksRaw      int `json:"blocks_raw"`
	BlocksLossless int `json:"blocks_lossless"`
	// Complete is false when the vector's tail was lost to a torn put;
	// the result covers the recovered prefix, like a 206 Get.
	Complete bool `json:"complete"`
}

// AggregateResult is the answer to an aggregate query. Sum and Mean are
// approximations with one-sided symmetric bounds: the exact answer lies
// within ±ErrorBound (±MeanErrorBound). Min and Max are conservative
// envelopes: Min ≤ exact min ≤ Min+MinErrorBound and
// Max−MaxErrorBound ≤ exact max ≤ Max. Count is exact.
type AggregateResult struct {
	Key            string  `json:"key"`
	Width          int     `json:"width"`
	Count          int64   `json:"count"`
	Sum            float64 `json:"sum"`
	ErrorBound     float64 `json:"error_bound"`
	Mean           float64 `json:"mean"`
	MeanErrorBound float64 `json:"mean_error_bound"`
	Min            float64 `json:"min"`
	MinErrorBound  float64 `json:"min_error_bound"`
	Max            float64 `json:"max"`
	MaxErrorBound  float64 `json:"max_error_bound"`
	QueryStats
}

// FilterResult is the answer to a range-filter query over [Lo, Hi]
// (inclusive). MatchesMin counts values provably inside, MatchesMax
// values possibly inside; the exact match count lies in
// [MatchesMin, MatchesMax]. Matches is the point estimate (classifying
// each reconstructed value directly) and ErrorBound its worst-case
// distance from the exact count.
type FilterResult struct {
	Key        string  `json:"key"`
	Width      int     `json:"width"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Matches    int64   `json:"matches"`
	MatchesMin int64   `json:"matches_min"`
	MatchesMax int64   `json:"matches_max"`
	ErrorBound int64   `json:"error_bound"`
	QueryStats
}

// DownsampleResult is a 1/16-resolution rendering of the vector: point
// g estimates the mean of values [16g, 16g+16) (the encoder's sub-block
// granularity; a trailing partial group is padded with its last value,
// mirroring the codec's block padding), with the exact mean within
// ±Bounds[g].
type DownsampleResult struct {
	Key    string    `json:"key"`
	Width  int       `json:"width"`
	Factor int       `json:"factor"`
	Points []float64 `json:"points"`
	Bounds []float64 `json:"bounds"`
	QueryStats
}

// sumSlack bounds the relative float64 accumulation error of plain
// summation (ours and the verifier's) over vectors up to ~2^30 values;
// it is orders of magnitude below any configurable t1.
const sumSlack = 1e-9

// queryScratch pools the per-query state so the read path stays
// allocation-free in steady state (the two result slices of a
// downsample, sized once before the walk, are the only per-call
// allocations).
type queryScratch struct {
	comp  *compress.Compressor
	rec32 [compress.BlockValues]uint32
	rec64 [compress.BlockValues64]uint64
	sum32 [compress.SummaryValues]int32
	sum64 [compress.SummaryValues64]int64
	v     vec.Vec // lossless-block decode buffer
}

// qop selects which accumulators a frame walk feeds.
type qop uint8

const (
	qopAggregate qop = iota
	qopFilter
	qopDownsample
)

// queryRun accumulates one query across frames.
type queryRun struct {
	op qop
	// qs is the pooled scratch and width the key's value width, both set
	// by runQuery before the walk.
	qs    *queryScratch
	width int
	// f is the relative bound factor for the ref being walked
	// (t1/(1−t1)); eps the additive term covering denormal flushes.
	f   float64
	eps float64

	// Aggregate state. sumW is Σ per-value bounds; sumAbs Σ|v| over all
	// values (accumulation slack); the min/max fields are the envelope
	// of the per-value intervals [v−w, v+w].
	count                      int64
	sum, sumW, sumAbs          float64
	minLo, minHi, maxLo, maxHi float64

	// Filter state.
	lo, hi          float64
	defIn, pos, est int64

	// Downsample state: groups of 16 values flushed into points/bounds.
	points, bounds             []float64
	groupSum, groupW, groupAbs float64
	groupN                     int

	// sp receives per-stage attribution (lock wait, frame reads, query
	// walk); nil outside the traced entry points.
	sp *trace.Span

	stats QueryStats
}

// setRef arms the per-ref bound parameters.
func (q *queryRun) setRef(t1 float64) {
	f := t1 / (1 - t1)
	if !(f >= 0) || math.IsInf(f, 0) { // corrupt or absurd threshold
		f = 1
	}
	q.f = f
	if q.width == 32 {
		q.eps = minNormal32
	} else {
		q.eps = minNormal64
	}
}

// Smallest normal magnitudes: a non-outlier original flushed to a zero
// reconstruction was denormal, so its error is below these.
const (
	minNormal32 = 0x1p-126
	minNormal64 = 0x1p-1022
)

// visitExact feeds one exactly-known value (outlier, raw or lossless).
func (q *queryRun) visitExact(v float64) {
	switch q.op {
	case qopAggregate:
		q.count++
		q.sum += v
		q.sumAbs += math.Abs(v)
		if v < q.minLo {
			q.minLo = v
		}
		if v < q.minHi {
			q.minHi = v
		}
		if v > q.maxHi {
			q.maxHi = v
		}
		if v > q.maxLo {
			q.maxLo = v
		}
	case qopFilter:
		if q.lo <= v && v <= q.hi {
			q.defIn++
			q.pos++
			q.est++
		}
	case qopDownsample:
		q.groupSum += v
		q.groupAbs += math.Abs(v)
		q.groupN++
		if q.groupN == compress.SubBlockSize {
			q.flushGroup()
		}
	}
}

// visitApprox feeds one reconstructed non-outlier value, whose exact
// counterpart lies within ±w of v for w = f·|v| (+eps when v
// reconstructed to zero, covering denormal flushes).
func (q *queryRun) visitApprox(v float64) {
	w := q.f * math.Abs(v)
	if v == 0 {
		w += q.eps
	}
	switch q.op {
	case qopAggregate:
		q.count++
		q.sum += v
		q.sumW += w
		q.sumAbs += math.Abs(v)
		if lo := v - w; lo < q.minLo {
			q.minLo = lo
		}
		if hi := v + w; hi < q.minHi {
			q.minHi = hi
		}
		if hi := v + w; hi > q.maxHi {
			q.maxHi = hi
		}
		if lo := v - w; lo > q.maxLo {
			q.maxLo = lo
		}
	case qopFilter:
		lo, hi := v-w, v+w
		switch {
		case lo >= q.lo && hi <= q.hi:
			q.defIn++
			q.pos++
		case hi < q.lo || lo > q.hi:
			// provably outside
		default:
			q.pos++
		}
		if q.lo <= v && v <= q.hi {
			q.est++
		}
	case qopDownsample:
		q.groupSum += v
		q.groupW += w
		q.groupAbs += math.Abs(v)
		q.groupN++
		if q.groupN == compress.SubBlockSize {
			q.flushGroup()
		}
	}
}

// visitDefinite counts n values as provably matching the filter
// predicate without touching them individually.
func (q *queryRun) visitDefinite(n int) {
	q.defIn += int64(n)
	q.pos += int64(n)
	q.est += int64(n)
}

func (q *queryRun) flushGroup() {
	n := float64(q.groupN)
	q.points = append(q.points, q.groupSum/n)
	q.bounds = append(q.bounds, q.groupW/n+sumSlack*q.groupAbs/n)
	q.groupSum, q.groupW, q.groupAbs, q.groupN = 0, 0, 0, 0
}

// padGroup repeats the group's last value until the group closes —
// the query-side mirror of the codec's partial-block padding, so every
// emitted point covers exactly 16 (possibly padded) positions.
func (q *queryRun) padGroup(v float64, exact bool) {
	for q.groupN != 0 {
		if exact {
			q.visitExact(v)
		} else {
			q.visitApprox(v)
		}
	}
}

// QueryAggregate computes count/sum/mean with t1-derived error bars and
// t1-widened min/max envelopes over the vector stored under key,
// reading summaries (plus outliers) instead of decoding blocks.
func (s *Store) QueryAggregate(key string) (AggregateResult, error) {
	return s.QueryAggregateTraced(key, nil)
}

// QueryAggregateTraced is QueryAggregate with per-stage attribution
// onto sp: store mutex wait (StageLock), the frame reads and their CRC
// checks (StageSegRead) and the compressed-domain walk over the verified
// frames (StageQuery). A nil span traces nothing at no cost.
func (s *Store) QueryAggregateTraced(key string, sp *trace.Span) (AggregateResult, error) {
	t0 := time.Now()
	q := queryRun{
		op:    qopAggregate,
		minLo: math.Inf(1), minHi: math.Inf(1),
		maxLo: math.Inf(-1), maxHi: math.Inf(-1),
		sp: sp,
	}
	width, err := s.runQuery(key, &q)
	if err != nil {
		return AggregateResult{}, err
	}
	res := AggregateResult{
		Key: key, Width: width, Count: q.count,
		Sum:        q.sum,
		ErrorBound: q.sumW + sumSlack*q.sumAbs,
		QueryStats: q.stats,
	}
	if q.count > 0 {
		res.Mean = q.sum / float64(q.count)
		res.MeanErrorBound = res.ErrorBound / float64(q.count)
		res.Min = q.minLo
		res.MinErrorBound = q.minHi - q.minLo
		res.Max = q.maxHi
		res.MaxErrorBound = q.maxHi - q.maxLo
	}
	finishQuery(&q, t0)
	return res, nil
}

// QueryFilter counts values in [lo, hi] (inclusive): a guaranteed
// bracket [MatchesMin, MatchesMax] plus a point estimate. Sub-blocks
// are pruned from summary bounds; outliers are classified exactly.
func (s *Store) QueryFilter(key string, lo, hi float64) (FilterResult, error) {
	return s.QueryFilterTraced(key, lo, hi, nil)
}

// QueryFilterTraced is QueryFilter with QueryAggregateTraced's
// per-stage attribution.
func (s *Store) QueryFilterTraced(key string, lo, hi float64, sp *trace.Span) (FilterResult, error) {
	if !(lo <= hi) {
		return FilterResult{}, fmt.Errorf("store: bad filter range [%g, %g]", lo, hi)
	}
	t0 := time.Now()
	q := queryRun{op: qopFilter, lo: lo, hi: hi, sp: sp}
	width, err := s.runQuery(key, &q)
	if err != nil {
		return FilterResult{}, err
	}
	res := FilterResult{
		Key: key, Width: width, Lo: lo, Hi: hi,
		Matches: q.est, MatchesMin: q.defIn, MatchesMax: q.pos,
		ErrorBound: q.pos - q.defIn,
		QueryStats: q.stats,
	}
	finishQuery(&q, t0)
	return res, nil
}

// QueryDownsample renders the vector at 1/16 resolution from the
// sub-block summaries: one point per 16 values, each with its own
// error bound.
func (s *Store) QueryDownsample(key string) (DownsampleResult, error) {
	return s.QueryDownsampleTraced(key, nil)
}

// QueryDownsampleTraced is QueryDownsample with
// QueryAggregateTraced's per-stage attribution.
func (s *Store) QueryDownsampleTraced(key string, sp *trace.Span) (DownsampleResult, error) {
	t0 := time.Now()
	q := queryRun{op: qopDownsample, sp: sp}
	width, err := s.runQuery(key, &q)
	if err != nil {
		return DownsampleResult{}, err
	}
	res := DownsampleResult{
		Key: key, Width: width, Factor: compress.SubBlockSize,
		Points: q.points, Bounds: q.bounds,
		QueryStats: q.stats,
	}
	finishQuery(&q, t0)
	return res, nil
}

// finishQuery publishes the per-query observability.
func finishQuery(q *queryRun, t0 time.Time) {
	obs.StoreQueries.Add(1)
	obs.StoreQueryBytesTouched.Add(q.stats.BytesTouched)
	obs.StoreQueryBytesTotal.Add(q.stats.BytesTotal)
	queryLatencyHist.Observe(float64(time.Since(t0).Microseconds()))
	if q.stats.BytesTotal > 0 {
		queryTrafficHist.Observe(float64(q.stats.BytesTouched) / float64(q.stats.BytesTotal))
	}
}

// runQuery runs q over key under the read lock: readLocked's frame walk
// with q as its consumer. Like the Get path it stops at the first hole
// (torn put) and answers over the recovered prefix, marked incomplete.
func (s *Store) runQuery(key string, q *queryRun) (int, error) {
	lt := q.sp.Begin()
	s.mu.RLock()
	q.sp.End(trace.StageLock, lt)
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	e, ok := s.index[key]
	if !ok {
		return 0, ErrNotFound
	}
	q.qs = s.queries.Get().(*queryScratch)
	defer s.queries.Put(q.qs)
	q.width = int(e.width)
	if q.op == qopDownsample {
		groups := (int(e.totalVals) + compress.SubBlockSize - 1) / compress.SubBlockSize
		q.points, q.bounds = make([]float64, 0, groups), make([]float64, 0, groups)
	}
	_, complete, err := s.readLocked(nil, false, q, key, e, q.sp)
	if err != nil {
		return 0, err
	}
	q.stats.Complete = complete
	if q.op == qopDownsample && q.groupN != 0 {
		// Trailing partial group of a lossless tail: close it with the
		// codec's padding convention.
		q.flushGroup()
	}
	return q.width, nil
}

// frame runs the query over one verified frame's data — what readLocked
// feeds its query consumer. A lossless frame is decoded and every value
// visited exactly; an AVR frame is walked record by record through the
// cursor the decode and the cache fill read with, so structural damage
// comes back as ErrCorrupt, never a panic.
func (q *queryRun) frame(ref blockRef, data []byte) error {
	q.setRef(ref.t1)
	q.stats.BytesTouched += ref.frameLen
	q.stats.BytesTotal += int64(ref.valCount) * int64(q.width/8)
	if ref.enc == encLossless {
		return q.lossless(data, int(ref.valCount))
	}
	cur, err := block.Open(streamLayout(q.width), data, int(ref.valCount))
	for err == nil && cur.More() {
		var rec block.Record
		if rec, err = cur.Next(); err != nil {
			break
		}
		if q.width == 64 {
			q.walkRecord64(&rec)
		} else {
			q.walkRecord32(&rec)
		}
	}
	return streamErr(err)
}

// lossless answers over a lossless-fallback block: exact decode, every
// value exact.
func (q *queryRun) lossless(data []byte, valCount int) error {
	qs := q.qs
	q.stats.BlocksLossless++
	var err error
	qs.v, err = decodeLosslessTo(qs.v.Reset(q.width), data, valCount)
	if err != nil {
		return err
	}
	// Only the live side of qs.v holds anything.
	var last float64
	if n := len(qs.v.F32); n > 0 {
		for _, v := range qs.v.F32 {
			q.visitExact(float64(v))
		}
		last = float64(qs.v.F32[n-1])
	}
	if n := len(qs.v.F64); n > 0 {
		for _, v := range qs.v.F64 {
			q.visitExact(v)
		}
		last = qs.v.F64[n-1]
	}
	if q.op == qopDownsample && qs.v.Len() > 0 {
		q.padGroup(last, true)
	}
	return nil
}

// walkRecord32 feeds one fp32 codec record to q.
func (q *queryRun) walkRecord32(rec *block.Record) {
	qs := q.qs
	take := rec.Values
	if rec.Raw != nil {
		q.stats.BlocksRaw++
		visitRaw32(q, rec.Raw, take)
		return
	}
	q.stats.BlocksAVR++
	block.ReadSummary32(&qs.sum32, rec.Summary)
	bias := int8(rec.Bias)
	if q.op == qopFilter && q.pruneFilter32(rec.Bitmap, rec.Outliers, rec.Method, bias, take) {
		return
	}
	qs.comp.DecompressBits32(qs.rec32[:], &qs.sum32, rec.Bitmap, rec.Outliers, rec.Method, bias)
	n := take
	if q.op == qopDownsample {
		// Include the encoder's padding so every point covers 16 positions.
		n = (take + compress.SubBlockSize - 1) / compress.SubBlockSize * compress.SubBlockSize
	}
	for i := 0; i < n; i++ {
		v := float64(math.Float32frombits(qs.rec32[i]))
		if bitSet(rec.Bitmap, i) {
			q.visitExact(v)
		} else {
			q.visitApprox(v)
		}
	}
}

// walkRecord64 feeds one fp64 codec record to q.
func (q *queryRun) walkRecord64(rec *block.Record) {
	qs := q.qs
	take := rec.Values
	if rec.Raw != nil {
		q.stats.BlocksRaw++
		visitRaw64(q, rec.Raw, take)
		return
	}
	q.stats.BlocksAVR++
	block.ReadSummary64(&qs.sum64, rec.Summary)
	if q.op == qopFilter && q.pruneFilter64(rec.Bitmap, rec.Bias, take) {
		return
	}
	qs.comp.DecompressInto64(qs.rec64[:], &qs.sum64, rec.Bitmap, rec.Outliers, rec.Bias)
	n := take
	if q.op == qopDownsample {
		n = (take + compress.SubBlockSize64 - 1) / compress.SubBlockSize64 * compress.SubBlockSize64
	}
	for i := 0; i < n; i++ {
		v := math.Float64frombits(qs.rec64[i])
		if bitSet(rec.Bitmap, i) {
			q.visitExact(v)
		} else {
			q.visitApprox(v)
		}
	}
}

// visitRaw32 feeds a raw fp32 payload (exact original bit patterns).
func visitRaw32(q *queryRun, raw []byte, take int) {
	n := take
	if q.op == qopDownsample {
		n = (take + compress.SubBlockSize - 1) / compress.SubBlockSize * compress.SubBlockSize
	}
	for i := 0; i < n; i++ {
		q.visitExact(float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))))
	}
}

func visitRaw64(q *queryRun, raw []byte, take int) {
	n := take
	if q.op == qopDownsample {
		n = (take + compress.SubBlockSize64 - 1) / compress.SubBlockSize64 * compress.SubBlockSize64
	}
	for i := 0; i < n; i++ {
		q.visitExact(math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])))
	}
}

// bitSet reports whether bit i is set in a (possibly nil) bitmap.
func bitSet(bm []byte, i int) bool {
	return i>>3 < len(bm) && bm[i>>3]&(1<<(i&7)) != 0
}

// pruneFilter32 tries to answer a filter over one fp32 block from its
// summary bounds alone. Every non-outlier reconstruction is a convex
// combination of summary values (interpolation stays within their
// range, and the fixed→float conversion is monotone), so the widened
// summary range brackets every non-outlier; outliers are classified
// exactly from their stored values. Returns true when the block was
// fully classified without interpolating.
func (q *queryRun) pruneFilter32(bitmap, outliers []byte, method compress.Method, bias int8, take int) bool {
	qs := q.qs
	smin, smax := summaryRange32(&qs.sum32, bias)
	in, out := rangeVerdict(q, smin, smax)
	if !in && !out {
		// The block straddles the predicate. For the 1D layout, prune
		// run by run: run s interpolates between summary values s−1..s+1.
		if method == compress.Method1D && len(bitmap) == 0 {
			return q.pruneRuns32(bias, take)
		}
		return false
	}
	nOut := 0
	oi := 0
	for i := 0; i < take; i++ {
		if bitSet(bitmap, i) {
			nOut++
		}
	}
	if in {
		q.visitDefinite(take - nOut)
	}
	// Outlier values are arbitrary — classify each exactly. Outlier
	// bytes are packed in bit order over the whole block, so walk all
	// 256 bits and skip those beyond take.
	for bi, b := range bitmap {
		for b != 0 {
			i := bi<<3 + bits.TrailingZeros8(b)
			b &= b - 1
			if i < take {
				q.visitExact(float64(math.Float32frombits(
					binary.LittleEndian.Uint32(outliers[oi:]))))
			}
			oi += 4
		}
	}
	return true
}

// pruneRuns32 classifies an outlier-free straddling 1D block run by
// run, interpolating only the runs whose own bounds still straddle.
func (q *queryRun) pruneRuns32(bias int8, take int) bool {
	qs, summary := q.qs, &q.qs.sum32
	interpolated := false
	for s := 0; s*compress.SubBlockSize < take; s++ {
		lo, hi := runRange32(summary, s, bias)
		in, out := rangeVerdict(q, lo, hi)
		first := s * compress.SubBlockSize
		n := take - first
		if n > compress.SubBlockSize {
			n = compress.SubBlockSize
		}
		switch {
		case in:
			q.visitDefinite(n)
		case out:
		default:
			if !interpolated {
				qs.comp.DecompressBits32(qs.rec32[:], summary, nil, nil, compress.Method1D, bias)
				interpolated = true
			}
			for i := first; i < first+n; i++ {
				q.visitApprox(float64(math.Float32frombits(qs.rec32[i])))
			}
		}
	}
	return true
}

// pruneFilter64 is pruneFilter32 for fp64 blocks (always 1D layout).
func (q *queryRun) pruneFilter64(bitmap []byte, bias int16, take int) bool {
	qs := q.qs
	smin, smax := summaryRange64(&qs.sum64, bias)
	in, out := rangeVerdict(q, smin, smax)
	if !in && !out {
		if len(bitmap) == 0 {
			return q.pruneRuns64(bias, take)
		}
		return false
	}
	if len(bitmap) == 0 {
		if in {
			q.visitDefinite(take)
		}
		return true
	}
	// Blocks with outliers: defer to the interpolating path, which
	// overlays the exact outliers (already read) before classifying.
	return false
}

// pruneRuns64 classifies an outlier-free straddling fp64 block run by
// run.
func (q *queryRun) pruneRuns64(bias int16, take int) bool {
	qs := q.qs
	interpolated := false
	for s := 0; s*compress.SubBlockSize64 < take; s++ {
		lo, hi := runRange64(&qs.sum64, s, bias)
		in, out := rangeVerdict(q, lo, hi)
		first := s * compress.SubBlockSize64
		n := take - first
		if n > compress.SubBlockSize64 {
			n = compress.SubBlockSize64
		}
		switch {
		case in:
			q.visitDefinite(n)
		case out:
		default:
			if !interpolated {
				qs.comp.DecompressInto64(qs.rec64[:], &qs.sum64, nil, nil, bias)
				interpolated = true
			}
			for i := first; i < first+n; i++ {
				q.visitApprox(math.Float64frombits(qs.rec64[i]))
			}
		}
	}
	return true
}

// rangeVerdict widens [smin, smax] by the per-ref bound and tests it
// against the predicate: in = every non-outlier provably matches,
// out = provably none does.
func (q *queryRun) widen(smin, smax float64) (float64, float64) {
	lo := smin - q.f*math.Abs(smin) - q.eps
	hi := smax + q.f*math.Abs(smax) + q.eps
	return lo, hi
}

func rangeVerdict(q *queryRun, smin, smax float64) (in, out bool) {
	// The widened range brackets every non-outlier only when x ∓ f·|x|
	// is monotone over [smin, smax], i.e. f ≤ 1. A larger f (corrupt
	// threshold) disables pruning; the per-value path stays correct.
	if q.f > 1 {
		return false, false
	}
	lo, hi := q.widen(smin, smax)
	in = lo >= q.lo && hi <= q.hi
	out = hi < q.lo || lo > q.hi
	return in, out
}

// fixedFloat32 converts a biased Q15.16 fixed value to its final float.
func fixedFloat32(v int32, bias int8) float64 {
	return float64(math.Float32frombits(fixed.RemoveBias(fixed.FixedToFloat(v), bias)))
}

// fixedFloat64 converts a biased Q31.32 fixed value to its final float.
func fixedFloat64(v int64, bias int16) float64 {
	return math.Float64frombits(fixed.RemoveBias64(fixed.FixedToFloat64(v), bias))
}

// summaryRange32 returns the min and max summary average as floats.
func summaryRange32(summary *[compress.SummaryValues]int32, bias int8) (float64, float64) {
	mn, mx := summary[0], summary[0]
	for _, v := range summary[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return fixedFloat32(mn, bias), fixedFloat32(mx, bias)
}

func summaryRange64(summary *[compress.SummaryValues64]int64, bias int16) (float64, float64) {
	mn, mx := summary[0], summary[0]
	for _, v := range summary[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return fixedFloat64(mn, bias), fixedFloat64(mx, bias)
}

// runRange32 bounds run s of a 1D block: its interpolated values lie
// between the summary averages of runs s−1..s+1 (edges clamped).
func runRange32(summary *[compress.SummaryValues]int32, s int, bias int8) (float64, float64) {
	lo, hi := summary[s], summary[s]
	if s > 0 {
		if v := summary[s-1]; v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	if s < compress.SummaryValues-1 {
		if v := summary[s+1]; v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	return fixedFloat32(lo, bias), fixedFloat32(hi, bias)
}

func runRange64(summary *[compress.SummaryValues64]int64, s int, bias int16) (float64, float64) {
	lo, hi := summary[s], summary[s]
	if s > 0 {
		if v := summary[s-1]; v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	if s < compress.SummaryValues64-1 {
		if v := summary[s+1]; v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	return fixedFloat64(lo, bias), fixedFloat64(hi, bias)
}
