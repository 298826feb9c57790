package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"avr/internal/block"
	"avr/internal/compress"
	"avr/internal/fixed"
	"avr/internal/obs"
	"avr/internal/simd"
	"avr/internal/trace"
	"avr/internal/vec"
)

// Compressed-domain query executor. The AVR block format is itself a
// query accelerator: the summary line holds 16→1 sub-block averages
// with per-value error bounded by t1, so sums, means, min/max bounds,
// range filters and downsampled scans can be answered from the stored
// form — a fraction of the raw bytes — in the arithmetic the codec
// interpolates in. A query is a consumer of readLocked's frame walk,
// like the Get decode and the cache fill: it is handed each of the
// key's frames whole, length- and CRC-verified, and reads the records
// in place. What it reconstructs of an AVR record is the fixed-point
// line — the summary interpolated to 256 Q15.16 (128 Q31.32) integers
// in compressor scratch — which it reduces with integer kernels: Σx,
// Σ|x|, min and max (simd.ReduceFixed32/64), or three range counts
// against a filter predicate mapped to integer thresholds
// (simd.CountRanges32/64). What it does not do is what a Get goes on
// to: no value becomes a float (one conversion per record, or per
// downsample point, turns the sums into value units), and the outliers
// are not overlaid — the bitmap's set positions are taken out of the
// reduction and their stored exact values reduced beside it, O(outliers).
// Raw (incompressible) records and lossless-fallback blocks have no
// summary; their values are exact and go through one slice kernel per op.
//
// Every approximate answer carries a rigorous error bound derived from
// the per-ref threshold: a non-outlier value v reconstructs to r with
// |v−r| ≤ t1·|v|, which inverts to |v−r| ≤ f·|r| for f = t1/(1−t1);
// outlier values are stored exactly. Bounds therefore hold against the
// exact answer computed from the original values (plus small terms for
// the float rounding of r a fixed-domain sum skips, float64
// accumulation and denormal flushes). DESIGN.md §5.6 has the argument.

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

// convSlack is the relative distance between a served value and the
// fixed-point reconstruction x·2^-(FracBits+bias) it was rounded from:
// one float32 rounding of an int32 for fp32; for fp64 the float64
// rounding of an int64 plus what ReduceFixed64 and the outlier
// correction of reduceFree lose, with room to spare. A query sums the
// fixed values, so the bound of a sum carries it next to f.
const (
	convSlack32 = 0x1p-24
	convSlack64 = 0x1p-41
)

// group is the downsample factor, the encoder's sub-block size at both
// widths.
const group = compress.SubBlockSize

// queryScratch pools the per-query state so the read path stays
// allocation-free in steady state (the two result slices of a
// downsample, sized once before the walk, are the only per-call
// allocations).
type queryScratch struct {
	comp *compress.Compressor
	b32  fixed32
	b64  fixed64
	// The exact outliers of the record being walked that lie below its
	// span: positions (ascending) and values.
	outAt [compress.BlockValues]uint8
	outV  [compress.BlockValues]float64
	v     vec.Vec // raw-record and lossless-block values
	// A filter's predicate mapped into the fixed domain per (bias, f),
	// cleared by runQuery — see thresholds.
	th [16]thresholds
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
	// (t1/(1−t1)): a served non-outlier r is within f·|r| of its
	// original. fs is the factor on Σ|x| for a sum taken in the fixed
	// domain, f + (1+f)·convSlack (≤ f + 2^-23 for f ≤ 1 at fp32). eps
	// is the additive term covering denormal flushes: an original below
	// it may be served as zero — or as any denormal of either sign, so a
	// fixed-domain sum allows 2·eps a value.
	f, fs, eps float64

	// Aggregate state. sumW is Σ per-value bounds; sumAbs Σ|v| over all
	// values (accumulation slack); the min/max fields are the envelope
	// of the per-value intervals [v−w, v+w].
	count                      int64
	sum, sumW, sumAbs          float64
	minLo, minHi, maxLo, maxHi float64

	// Filter state: the predicate and the three counts.
	lo, hi          float64
	defIn, pos, est int64

	// Downsample state: one point and bound per 16 positions.
	points, bounds []float64

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
	q.f, q.fs, q.eps = f, f+(1+f)*convSlack32, minNormal32
	if q.width == 64 {
		q.fs, q.eps = f+(1+f)*convSlack64, minNormal64
	}
}

// Smallest normal magnitudes: a non-outlier original flushed to a zero
// reconstruction was denormal, so its error is below these.
const (
	minNormal32 = 0x1p-126
	minNormal64 = 0x1p-1022
)

// interval is where the original of a served non-outlier r can lie:
// r ∓ w for w = f·|r| (+eps when r is zero, covering denormal flushes).
func (q *queryRun) interval(r float64) (lo, hi float64) {
	w := q.f * math.Abs(r)
	if r == 0 {
		w += q.eps
	}
	return r - w, r + w
}

// envelope widens the min/max envelopes by the interval [minLo, minHi]
// of a batch's least value and [maxLo, maxHi] of its greatest.
func (q *queryRun) envelope(minLo, minHi, maxLo, maxHi float64) {
	if minLo < q.minLo {
		q.minLo = minLo
	}
	if minHi < q.minHi {
		q.minHi = minHi
	}
	if maxHi > q.maxHi {
		q.maxHi = maxHi
	}
	if maxLo > q.maxLo {
		q.maxLo = maxLo
	}
}

// point emits one downsample point from its group's Σv, Σ bound and Σ|v|.
func (q *queryRun) point(sum, w, abs float64) {
	q.points = append(q.points, sum/group)
	q.bounds = append(q.bounds, w/group+sumSlack*abs/group)
}

// QueryAggregateTraced computes count/sum/mean with t1-derived error
// bars and t1-widened min/max envelopes over the vector stored under
// key, reducing fixed-point reconstructions (plus outliers) instead of
// decoding blocks. It attributes its time onto sp: store mutex wait
// (StageLock), the frame reads and their CRC checks (StageSegRead) and
// the compressed-domain walk over the verified frames (StageQuery). A
// nil span traces nothing at no cost.
func (s *Store) QueryAggregateTraced(key string, sp *trace.Span) (AggregateResult, error) {
	q := queryRun{
		op:    qopAggregate,
		minLo: math.Inf(1), minHi: math.Inf(1),
		maxLo: math.Inf(-1), maxHi: math.Inf(-1),
		sp: sp,
	}
	if _, err := s.runQuery(key, &q); err != nil {
		return AggregateResult{}, err
	}
	res := q.aggregateResult(key)
	finishQuery(&q)
	return res, nil
}

// aggregateResult reads the answer off a finished walk.
func (q *queryRun) aggregateResult(key string) AggregateResult {
	res := AggregateResult{
		Key: key, Width: q.width, Count: q.count,
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
	return res
}

// QueryFilterTraced counts values in [lo, hi] (inclusive): a guaranteed
// bracket [MatchesMin, MatchesMax] plus a point estimate. Records are
// settled from their summary line's extremes where those decide;
// outliers are classified exactly. Its time goes onto sp as
// QueryAggregateTraced's does.
func (s *Store) QueryFilterTraced(key string, lo, hi float64, sp *trace.Span) (FilterResult, error) {
	if !(lo <= hi) {
		return FilterResult{}, fmt.Errorf("store: bad filter range [%g, %g]", lo, hi)
	}
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
	finishQuery(&q)
	return res, nil
}

// QueryDownsampleTraced renders the vector at 1/16 resolution from the
// sub-block summaries: one point per 16 values, each with its own error
// bound. Its time goes onto sp as QueryAggregateTraced's does.
func (s *Store) QueryDownsampleTraced(key string, sp *trace.Span) (DownsampleResult, error) {
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
	finishQuery(&q)
	return res, nil
}

// finishQuery publishes the per-query observability.
func finishQuery(q *queryRun) {
	obs.StoreQueries.Add(1)
	obs.StoreQueryBytesTouched.Add(q.stats.BytesTouched)
	obs.StoreQueryBytesTotal.Add(q.stats.BytesTotal)
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
	q.qs.th = [len(q.qs.th)]thresholds{}
	q.width = int(e.width)
	if q.op == qopDownsample {
		groups := (int(e.totalVals) + compress.SubBlockSize - 1) / compress.SubBlockSize
		q.points, q.bounds = make([]float64, 0, groups), make([]float64, 0, groups)
	}
	_, complete, err := s.readLocked(nil, nil, false, q, key, e, q.sp)
	if err != nil {
		return 0, err
	}
	q.stats.Complete = complete
	return q.width, nil
}

// frame runs the query over one verified frame's data — what readLocked
// feeds its query consumer. A lossless frame is decoded and its values
// reduced exactly; an AVR frame is walked record by record through the
// cursor the decode and the cache fill read with, so structural damage
// comes back as ErrCorrupt, never a panic.
func (q *queryRun) frame(ref blockRef, data []byte) error {
	q.setRef(ref.t1)
	q.stats.BytesTouched += ref.frameLen
	q.stats.BytesTotal += int64(ref.valCount) * int64(q.width/8)
	if ref.enc == encLossless {
		q.stats.BlocksLossless++
		var err error
		q.qs.v, err = decodeLosslessTo(q.qs.v.Reset(q.width), data, int(ref.valCount))
		if err == nil {
			q.exactVec()
		}
		return err
	}
	var b fixedBlock = &q.qs.b32
	if q.width == 64 {
		b = &q.qs.b64
	}
	cur, err := block.Open(streamLayout(q.width), data, int(ref.valCount))
	var rec block.Record
	for err == nil && cur.More() {
		if err = cur.Next(&rec); err == nil {
			q.record(b, &rec)
		}
	}
	return streamErr(err)
}

// record feeds one codec record to q. Its span is the record's values —
// for a downsample, rounded up to whole groups: the encoder's padding,
// so every point covers 16 positions. A raw record is reduced exactly.
// An AVR record is reconstructed in the fixed domain only; a filter
// first tries its summary line, whose extremes bracket every
// reconstruction (interpolation is a convex combination).
func (q *queryRun) record(b fixedBlock, rec *block.Record) {
	qs := q.qs
	n := rec.Values
	if q.op == qopDownsample {
		n = (n + group - 1) / group * group
	}
	if rec.Raw != nil {
		q.stats.BlocksRaw++
		qs.v = qs.v.Reset(q.width).FromLE(rec.Raw[:n*q.width/8])
		q.exactVec()
		return
	}
	q.stats.BlocksAVR++
	at, out := q.outliers(rec, n)
	b.load(rec.Summary, rec.Bias)
	var th *thresholds
	if q.op == qopFilter && q.f <= 1 {
		th = q.thresholds(b, int(rec.Bias))
		smin, smax := b.summaryRange()
		in := smin >= th.lo[0] && smax <= th.hi[0]
		if m := n - len(at); in {
			q.matched([3]int{m, m, m})
		}
		if in || th.lo[1] > th.hi[1] || smax < th.lo[1] || smin > th.hi[1] {
			exactFilter(q, out)
			return
		}
	}
	b.reconstruct(qs.comp, rec.Method)
	switch q.op {
	case qopAggregate:
		if sum, abs, lo, hi, m := q.reduceFree(b, n, at); m > 0 {
			q.count += int64(m)
			q.sum += sum
			q.sumAbs += abs
			q.sumW += q.fs*abs + 2*q.eps*float64(m)
			// r ∓ f·|r| is monotone in r for f ≤ 1, so the record's two
			// attained extremes carry its envelope. Beyond that it is
			// not, and every value's interval is looked at (as in
			// classify).
			if q.f <= 1 {
				minLo, minHi := q.interval(lo)
				maxLo, maxHi := q.interval(hi)
				q.envelope(minLo, minHi, maxLo, maxHi)
			} else {
				for i := 0; i < n; i++ {
					l, h := q.interval(b.at(i))
					q.envelope(l, h, l, h)
				}
			}
		}
		exactAggregate(q, out)
	case qopFilter:
		if len(at) < n {
			p := b.mask(at, true)
			c, c1 := q.classify(b, th, 0, n), q.classify(b, th, p, p+1)
			for k := range c {
				c[k] -= len(at) * c1[k]
			}
			q.matched(c)
		}
		exactFilter(q, out)
	case qopDownsample:
		// Zeroed, an outlier position adds nothing to Σx or Σ|x|; its
		// exact value joins its group's sums instead.
		b.mask(at, false)
		var es, ea [compress.BlockValues / group]float64
		for k, i := range at {
			es[i/group] += out[k]
			ea[i/group] += math.Abs(out[k])
		}
		for g := 0; g*group < n; g++ {
			sum, abs, _, _ := b.reduce(g*group, (g+1)*group)
			q.point(sum+es[g], q.fs*abs+2*q.eps*group, abs+ea[g])
		}
	}
}

// outliers reads the record's exact outliers below span n out of the
// bitmap (none, or a whole number of 8-byte words at either width) and
// the packed values: positions ascending, O(outliers).
func (q *queryRun) outliers(rec *block.Record, n int) ([]uint8, []float64) {
	qs, k := q.qs, 0
	for w := 0; w+8 <= len(rec.Bitmap); w += 8 {
		for b := binary.LittleEndian.Uint64(rec.Bitmap[w:]); b != 0; b &= b - 1 {
			i := w<<3 + bits.TrailingZeros64(b)
			if i >= n { // packed in bit order: the rest lie beyond too
				return qs.outAt[:k], qs.outV[:k]
			}
			if q.width == 64 {
				qs.outV[k] = math.Float64frombits(binary.LittleEndian.Uint64(rec.Outliers[8*k:]))
			} else {
				qs.outV[k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(rec.Outliers[4*k:])))
			}
			qs.outAt[k] = uint8(i)
			k++
		}
	}
	return qs.outAt[:k], qs.outV[:k]
}

// reduceFree reduces the m non-outlier positions below n: Σ and Σ|·| in
// value units and the served floats of the least and greatest. Outlier
// positions are overwritten with a non-outlier's value first — which
// cannot move min or max — and its multiples taken back off the sums.
func (q *queryRun) reduceFree(b fixedBlock, n int, at []uint8) (sum, abs, lo, hi float64, m int) {
	if m = n - len(at); m == 0 {
		return
	}
	p := b.mask(at, true)
	sum, abs, lo, hi = b.reduce(0, n)
	if len(at) > 0 {
		fs, fa, _, _ := b.reduce(p, p+1)
		sum -= float64(len(at)) * fs
		abs -= float64(len(at)) * fa
	}
	return
}

// matched adds one record's three filter counts.
func (q *queryRun) matched(c [3]int) {
	q.defIn += int64(c[0])
	q.pos += int64(c[1])
	q.est += int64(c[2])
}

// classify counts positions [i, j) of b provably inside the predicate,
// possibly inside, and inside as served: three range counts when the
// predicate is mapped into the fixed domain, per value when it cannot
// be (th == nil, f > 1).
func (q *queryRun) classify(b fixedBlock, th *thresholds, i, j int) (c [3]int) {
	if th != nil {
		return b.count(i, j, th)
	}
	for ; i < j; i++ {
		r := b.at(i)
		lo, hi := q.interval(r)
		if lo >= q.lo && hi <= q.hi {
			c[0]++
		}
		if !(hi < q.lo || lo > q.hi) {
			c[1]++
		}
		if q.lo <= r && r <= q.hi {
			c[2]++
		}
	}
	return c
}

// thresholds is the filter predicate mapped into the fixed domain for
// one (bias, f): inclusive ranges of x whose served float is provably
// inside [lo, hi] (interval within it), possibly inside (interval meets
// it) and inside as served. The served float is monotone in x and, for
// f ≤ 1, so are both ends of its interval, so each of the six
// conditions holds on one side of a threshold — found by binary search
// over the very float expression the per-value test evaluates, which
// makes the range counts equal to classifying value by value. A range
// with lo > hi is empty.
type thresholds struct {
	ok     bool
	bias   int
	f      float64
	lo, hi [3]int64
}

// thresholds returns the mapping for the record loaded in b, from a
// small direct-mapped memo: most records of a key share a bias.
func (q *queryRun) thresholds(b fixedBlock, bias int) *thresholds {
	th := &q.qs.th[bias&(len(q.qs.th)-1)]
	if th.ok && th.bias == bias && th.f == q.f {
		return th
	}
	*th = thresholds{ok: true, bias: bias, f: q.f}
	max := int64(math.MaxInt32)
	if q.width == 64 {
		max = math.MaxInt64
	}
	// ends picks what range k compares against the predicate's lo and hi.
	ends := func(x int64, k int) (float64, float64) {
		r := b.float(x)
		lo, hi := q.interval(r)
		switch k {
		case 0:
			return lo, hi
		case 1:
			return hi, lo
		}
		return r, r
	}
	for k := range th.lo {
		// x ↦ ^x reverses the order, turning "last x at or below" into
		// the same search.
		first, ok1 := firstTrue(^max, max, func(x int64) bool { v, _ := ends(x, k); return v >= q.lo })
		last, ok2 := firstTrue(^max, max, func(x int64) bool { _, v := ends(^x, k); return v <= q.hi })
		if th.lo[k], th.hi[k] = first, ^last; !ok1 || !ok2 {
			th.lo[k], th.hi[k] = 1, 0
		}
	}
	return th
}

// firstTrue returns the least x in [lo, hi] with p(x), for a p that is
// false up to some point and true from it on; ok is false when p(hi) is.
func firstTrue(lo, hi int64, p func(int64) bool) (x int64, ok bool) {
	if !p(hi) {
		return 0, false
	}
	for lo < hi {
		if mid := lo + int64((uint64(hi)-uint64(lo))/2); p(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi, true
}

// fixedBlock is one AVR record in the codec's fixed-point domain. The
// two widths behind it hold the only width-specific arithmetic of a
// query: fixed32 over interpolate, ReduceFixed32 and CountRanges32,
// fixed64 over interpolate64, ReduceFixed64 and CountRanges64, each a
// vector kernel where simd.Enabled() and its Go loop elsewhere.
type fixedBlock interface {
	// load reads a record's summary line and bias.
	load(summary []byte, bias int16)
	// summaryRange returns the least and greatest summary value.
	summaryRange() (lo, hi int64)
	// reconstruct interpolates the summary line into compressor scratch:
	// the positions the methods below index.
	reconstruct(c *compress.Compressor, m compress.Method)
	// mask overwrites the positions at — ascending, not all of them when
	// filler is set — with the value of the first position not among
	// them, which it returns, or with zero.
	mask(at []uint8, filler bool) int
	// reduce returns Σx and Σ|x| over positions [i, j) in value units
	// and the served floats of the least and greatest x.
	reduce(i, j int) (sum, abs, lo, hi float64)
	// count is the three range counts of th over positions [i, j).
	count(i, j int, th *thresholds) [3]int
	// float is the served float of fixed value x — x rounded to the
	// float width, times 2^-(FracBits+bias) — and at that of position i.
	// The decode gets there by exponent surgery, which wraps where this
	// product would leave the width's normal range; no non-outlier of a
	// well-formed record is served from there except as a denormal, which
	// the eps term covers, and the product stays monotone in x throughout,
	// which the threshold search needs.
	float(x int64) float64
	at(i int) float64
}

type fixed32 struct {
	sum   [compress.SummaryValues]int32
	x     *[compress.BlockValues]int32
	bias  int8
	scale float64 // 2^-(FracBits+bias)
}

func (b *fixed32) load(summary []byte, bias int16) {
	block.ReadSummary32(&b.sum, summary)
	if b.scale == 0 || b.bias != int8(bias) { // most records of a key share a bias
		b.bias = int8(bias)
		b.scale = math.Ldexp(1, -(fixed.FracBits + int(b.bias)))
	}
}

func (b *fixed32) summaryRange() (int64, int64) {
	_, _, lo, hi := simd.ReduceFixed32(b.sum[:])
	return int64(lo), int64(hi)
}

func (b *fixed32) reconstruct(c *compress.Compressor, m compress.Method) {
	b.x = c.ReconstructFixed32(&b.sum, m)
}

func (b *fixed32) mask(at []uint8, filler bool) int { return maskFixed(b.x[:], at, filler) }

func (b *fixed32) reduce(i, j int) (sum, abs, lo, hi float64) {
	s, a, mn, mx := simd.ReduceFixed32(b.x[i:j])
	return float64(s) * b.scale, float64(a) * b.scale, b.float(int64(mn)), b.float(int64(mx))
}

func (b *fixed32) count(i, j int, th *thresholds) [3]int {
	lo := [3]int32{int32(th.lo[0]), int32(th.lo[1]), int32(th.lo[2])}
	hi := [3]int32{int32(th.hi[0]), int32(th.hi[1]), int32(th.hi[2])}
	return simd.CountRanges32(b.x[i:j], &lo, &hi)
}

func (b *fixed32) float(x int64) float64 { return float64(float32(x)) * b.scale }
func (b *fixed32) at(i int) float64      { return b.float(int64(b.x[i])) }

type fixed64 struct {
	sum   [compress.SummaryValues64]int64
	x     *[compress.BlockValues64]int64
	bias  int16
	scale float64 // 2^-(FracBits64+bias)
}

func (b *fixed64) load(summary []byte, bias int16) {
	block.ReadSummary64(&b.sum, summary)
	if b.scale == 0 || b.bias != bias {
		b.bias = bias
		b.scale = math.Ldexp(1, -(fixed.FracBits64 + int(b.bias)))
	}
}

func (b *fixed64) summaryRange() (int64, int64) {
	_, _, lo, hi := simd.ReduceFixed64(b.sum[:])
	return lo, hi
}

func (b *fixed64) reconstruct(c *compress.Compressor, _ compress.Method) {
	b.x = c.ReconstructFixed64(&b.sum)
}

func (b *fixed64) mask(at []uint8, filler bool) int { return maskFixed(b.x[:], at, filler) }

func (b *fixed64) reduce(i, j int) (sum, abs, lo, hi float64) {
	s, a, mn, mx := simd.ReduceFixed64(b.x[i:j])
	return s * b.scale, a * b.scale, b.float(mn), b.float(mx)
}

func (b *fixed64) count(i, j int, th *thresholds) [3]int {
	return simd.CountRanges64(b.x[i:j], &th.lo, &th.hi)
}

func (b *fixed64) float(x int64) float64 { return float64(x) * b.scale }
func (b *fixed64) at(i int) float64      { return b.float(b.x[i]) }

func maskFixed[I int32 | int64](x []I, at []uint8, filler bool) int {
	var v I
	p := 0
	if filler {
		for p < len(at) && int(at[p]) == p {
			p++
		}
		v = x[p]
	}
	for _, i := range at {
		x[i] = v
	}
	return p
}

// Exactly known values — outliers, raw records, lossless blocks — go
// through one slice kernel per op.

// exactVec reduces the values in qs.v; only its live side holds any.
func (q *queryRun) exactVec() {
	exact(q, q.qs.v.F32)
	exact(q, q.qs.v.F64)
}

func exact[F float32 | float64](q *queryRun, vals []F) {
	switch q.op {
	case qopAggregate:
		exactAggregate(q, vals)
	case qopFilter:
		exactFilter(q, vals)
	case qopDownsample:
		exactDownsample(q, vals)
	}
}

func exactAggregate[F float32 | float64](q *queryRun, vals []F) {
	var sum, abs float64
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, f := range vals {
		v := float64(f)
		sum += v
		abs += math.Abs(v)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	q.count += int64(len(vals))
	q.sum += sum
	q.sumAbs += abs
	q.envelope(mn, mn, mx, mx)
}

func exactFilter[F float32 | float64](q *queryRun, vals []F) {
	n := 0
	for _, f := range vals {
		if v := float64(f); q.lo <= v && v <= q.hi {
			n++
		}
	}
	q.matched([3]int{n, n, n})
}

// exactDownsample emits one point per 16 values; a trailing partial
// group is padded with its last value — the query-side mirror of the
// codec's partial-block padding.
func exactDownsample[F float32 | float64](q *queryRun, vals []F) {
	for len(vals) > 0 {
		g := vals[:min(group, len(vals))]
		vals = vals[len(g):]
		var sum, abs float64
		for _, f := range g {
			sum += float64(f)
			abs += math.Abs(float64(f))
		}
		pad, last := float64(group-len(g)), float64(g[len(g)-1])
		q.point(sum+pad*last, 0, abs+pad*math.Abs(last))
	}
}
