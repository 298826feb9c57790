package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"avr/internal/block"
	"avr/internal/compress"
	"avr/internal/fixed"
	"avr/internal/vec"
)

// The reference segment scanner: scanSegment and the parseRecord under it
// as recovery and compaction ran them up to ISSUE 21, kept here verbatim
// (parseRecord under the name refParseRecord, its offsets still written
// out as numbers) as the oracle the one verifier and its chunked walk
// (verifyFrame, walkFrames) are held to. The reference reads a stream
// front to back with its own length, CRC and layout checks; nothing
// outside the tests runs it.

// refParseRecord decodes one frame payload. The returned record's Data
// aliases payload.
func refParseRecord(payload []byte) (record, error) {
	var rec record
	if len(payload) < 1+8+2 {
		return rec, fmt.Errorf("%w: %d-byte payload", ErrCorrupt, len(payload))
	}
	rec.Kind = payload[0]
	rec.Seq = binary.LittleEndian.Uint64(payload[1:])
	keyLen := int(binary.LittleEndian.Uint16(payload[9:]))
	payload = payload[11:]
	if keyLen == 0 || keyLen > maxKeyLen || keyLen > len(payload) {
		return rec, fmt.Errorf("%w: key length %d", ErrCorrupt, keyLen)
	}
	rec.Key = string(payload[:keyLen])
	payload = payload[keyLen:]
	switch rec.Kind {
	case recordTombstone:
		if len(payload) != 0 {
			return rec, fmt.Errorf("%w: tombstone with %d trailing bytes", ErrCorrupt, len(payload))
		}
		return rec, nil
	case recordBlock:
	default:
		return rec, fmt.Errorf("%w: kind %d", ErrCorrupt, rec.Kind)
	}
	if len(payload) < 4+8+1+1+4+8 {
		return rec, fmt.Errorf("%w: short block record", ErrCorrupt)
	}
	rec.BlockIdx = binary.LittleEndian.Uint32(payload)
	rec.TotalVals = binary.LittleEndian.Uint64(payload[4:])
	rec.Width = payload[12]
	rec.Enc = payload[13]
	rec.ValCount = binary.LittleEndian.Uint32(payload[14:])
	rec.T1 = math.Float64frombits(binary.LittleEndian.Uint64(payload[18:]))
	rec.Data = payload[26:]
	if rec.Width != 32 && rec.Width != 64 {
		return rec, fmt.Errorf("%w: width %d", ErrCorrupt, rec.Width)
	}
	if rec.Enc != encAVR && rec.Enc != encLossless {
		return rec, fmt.Errorf("%w: encoding %d", ErrCorrupt, rec.Enc)
	}
	if rec.ValCount == 0 || rec.ValCount > BlockValues {
		return rec, fmt.Errorf("%w: block value count %d", ErrCorrupt, rec.ValCount)
	}
	if rec.TotalVals == 0 || uint64(rec.BlockIdx)*BlockValues >= rec.TotalVals {
		return rec, fmt.Errorf("%w: block %d beyond vector of %d values",
			ErrCorrupt, rec.BlockIdx, rec.TotalVals)
	}
	return rec, nil
}

// scanSegment reads a segment stream and calls fn for each intact frame
// with the parsed record, the frame's file offset and its full length
// (header included). It returns the offset of the first byte after the
// last intact frame. A short or checksum-failing tail yields ErrTorn
// (wrapped); a parse failure inside an intact frame yields ErrCorrupt;
// fn's error aborts the scan as-is.
func scanSegment(r io.Reader, fn func(rec record, off int64, frameLen int64) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: short header", ErrTorn)
	}
	if string(hdr[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(segMagic):]); v != segVersion {
		return 0, fmt.Errorf("%w: segment version %d", ErrCorrupt, v)
	}
	off := int64(segHeaderLen)
	payload := make([]byte, 0, 1<<12)
	for {
		var fh [frameHeaderLen]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			if err == io.EOF {
				return off, nil // clean end on a frame boundary
			}
			return off, fmt.Errorf("%w: short frame header", ErrTorn)
		}
		n := binary.LittleEndian.Uint32(fh[:])
		want := binary.LittleEndian.Uint32(fh[4:])
		if n == 0 || n > maxFramePayload {
			// A wild length word is indistinguishable from garbage after
			// a torn write; either way nothing past it is trustworthy.
			return off, fmt.Errorf("%w: frame length %d", ErrTorn, n)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, fmt.Errorf("%w: short frame payload", ErrTorn)
		}
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return off, fmt.Errorf("%w: frame CRC mismatch at offset %d", ErrTorn, off)
		}
		rec, err := refParseRecord(payload)
		if err != nil {
			return off, err
		}
		frameLen := int64(frameHeaderLen) + int64(n)
		if err := fn(rec, off, frameLen); err != nil {
			return off, err
		}
		off += frameLen
	}
}

// walkImage runs walkFrames over an in-memory segment image, fetched
// chunk bytes at a time, behind the reference's signature.
func walkImage(img []byte, chunk int, fn func(rec record, off, frameLen int64) error) (int64, error) {
	return walkFrames(func(off int64) ([]byte, error) {
		end := min(int(off)+chunk, len(img))
		if end == len(img) {
			return img[off:end], io.EOF
		}
		return img[off:end], nil
	}, func(_ int64, _ []byte, frames []segFrame) error {
		for _, fr := range frames {
			if err := fn(fr.rec, fr.off, fr.n); err != nil {
				return err
			}
		}
		return nil
	})
}

// minChunk is the smallest chunk walkFrames' contract allows a fetch to
// return short of the end: the header and one maximal frame.
const minChunk = segHeaderLen + frameHeaderLen + maxFramePayload

// scanSig is what one delivered frame looked like, in comparable form.
type scanSig struct {
	kind, width, enc   uint8
	seq, totalVals     uint64
	key                string
	blockIdx, valCount uint32
	t1                 float64
	dataLen            int
	dataCRC            uint32
	off, size          int64
}

// scanVerdict is everything a scan reports.
type scanVerdict struct {
	frames []scanSig
	good   int64
	class  string
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTorn):
		return "torn"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "unclassified: " + err.Error()
}

// verdictOf runs scan (the reference, or the walker at some chunk size)
// and files what it delivered into v, reusing its storage.
func verdictOf(v *scanVerdict, scan func(fn func(rec record, off, frameLen int64) error) (int64, error)) {
	v.frames = v.frames[:0]
	good, err := scan(func(rec record, off, frameLen int64) error {
		v.frames = append(v.frames, scanSig{
			kind: rec.Kind, width: rec.Width, enc: rec.Enc, seq: rec.Seq, totalVals: rec.TotalVals,
			key: rec.Key, blockIdx: rec.BlockIdx, valCount: rec.ValCount, t1: rec.T1,
			dataLen: len(rec.Data), dataCRC: crc32.Checksum(rec.Data, castagnoli), off: off, size: frameLen,
		})
		return nil
	})
	v.good, v.class = good, errClass(err)
}

func (v *scanVerdict) equal(w *scanVerdict) bool {
	return v.good == w.good && v.class == w.class && slices.Equal(v.frames, w.frames)
}

// oracleImage is a segment image with every kind of frame in it: blocks of
// both widths and both encodings, tombstones, keys of maximal length, and
// in the middle a frame of maximal size — no chunk that starts at the
// header holds it, so the walk has to start one at it.
func oracleImage() []byte {
	const bigKey = "big"
	recs := append(seedRecords(),
		&record{Kind: recordBlock, Seq: 4, Key: bigKey, BlockIdx: 0, TotalVals: 2 * BlockValues, Width: 64,
			Enc: encLossless, ValCount: BlockValues, T1: 1.0 / 8,
			Data: bytes.Repeat([]byte{0xa5, 0x5a, 0x3c}, maxFramePayload)[:maxFramePayload-blockRecordOverhead(len(bigKey))]},
		&record{Kind: recordTombstone, Seq: 5, Key: "w"},
		&record{Kind: recordBlock, Seq: 6, Key: "wide", BlockIdx: 1, TotalVals: BlockValues + 7, Width: 64,
			Enc: encLossless, ValCount: 7, T1: 1.0 / 1024, Data: appendLossless(nil, vec.Of64(make([]float64, 7)))},
		&record{Kind: recordTombstone, Seq: 7, Key: strings.Repeat("t", maxKeyLen)},
		&record{Kind: recordBlock, Seq: 8, Key: "last", BlockIdx: 0, TotalVals: 3, Width: 32,
			Enc: encAVR, ValCount: 3, T1: 1.0 / 32, Data: []byte{9, 8, 7, 6, 5}},
	)
	return buildSegment(recs...)
}

// TestWalkMatchesReferenceScan holds the chunked walk over the one
// verifier to the reference scanner: on the image above cut at every byte
// offset, and with seeded single-bit flips, both must deliver the same
// records at the same offsets, stop at the same "good" offset and class
// the damage the same way — whatever the chunk size.
func TestWalkMatchesReferenceScan(t *testing.T) {
	img := oracleImage()
	var want, got scanVerdict
	check := func(what string, data []byte, chunks []int) {
		t.Helper()
		verdictOf(&want, func(fn func(record, int64, int64) error) (int64, error) {
			return scanSegment(bytes.NewReader(data), fn)
		})
		if strings.HasPrefix(want.class, "unclassified") {
			t.Fatalf("%s: reference: %s", what, want.class)
		}
		for _, c := range chunks {
			verdictOf(&got, func(fn func(record, int64, int64) error) (int64, error) {
				return walkImage(data, c, fn)
			})
			if !got.equal(&want) {
				t.Fatalf("%s, %d-byte chunks: walk delivered %d frames, good %d, %s; reference %d frames, good %d, %s",
					what, c, len(got.frames), got.good, got.class, len(want.frames), want.good, want.class)
			}
		}
	}
	check("whole image", img, []int{minChunk, maxRunBytes})
	if want.class != "ok" || len(want.frames) != 9 || want.good != int64(len(img)) {
		t.Fatalf("reference on the whole image: %d frames, good %d of %d, %s", len(want.frames), want.good, len(img), want.class)
	}
	// The walk's second chunk starts at the maximal frame. These sizes end
	// it as early as a chunk may end, on the boundary of the frame after
	// the tombstone behind the big one, inside that frame's length word,
	// inside its CRC and inside its payload; the last reads the image whole.
	big, next := want.frames[4], want.frames[6]
	if big.size != frameHeaderLen+maxFramePayload {
		t.Fatalf("frame 4 is %d bytes, not maximal", big.size)
	}
	span := int(next.off - big.off)
	chunks := []int{minChunk, span, span + 2, span + 6, span + 29, maxRunBytes}
	stride := 1
	if testing.Short() {
		stride = 13
	}
	for cut := 0; cut < len(img); cut += stride {
		check(fmt.Sprintf("cut at %d", cut), img[:cut], chunks)
	}
	rng := rand.New(rand.NewSource(21))
	mut := make([]byte, len(img))
	for i := 0; i < 600; i++ {
		copy(mut, img)
		bit := rng.Intn(8 * len(img))
		if i%2 == 0 { // half of them in the small frames ahead of the big one
			bit = rng.Intn(8 * int(big.off))
		}
		mut[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), mut, chunks)
		if want.class == "ok" {
			t.Fatalf("bit %d flipped: the reference did not notice", bit)
		}
	}
}

// ---------------------------------------------------------------------
// The per-value query walk, as it ran on the serving path until ISSUE 22
// moved queries into the codec's fixed-point domain: every AVR record
// inflated to floats by the get's kernel (DecompressBits32 /
// DecompressInto64) and fed value by value through visitApprox /
// visitExact, with the float-domain summary and run pruning in front.
// Kept verbatim (the types renamed queryRun → oracleRun, queryScratch →
// oracleScratch; the trailing flushGroup runQuery used to run is
// oracleRun.finish) as the differential oracle for the fixed-domain
// walk in query.go — TestQueryMatchesOracle, TestPropertyQueryAllWorkloads
// and FuzzQueryFrame run both over the same frames.
// ---------------------------------------------------------------------

func newOracleRun(op qop, width int, lo, hi float64) *oracleRun {
	return &oracleRun{
		op:    op,
		qs:    &oracleScratch{comp: compress.NewCompressor(compress.DefaultThresholds())},
		width: width,
		minLo: math.Inf(1), minHi: math.Inf(1),
		maxLo: math.Inf(-1), maxHi: math.Inf(-1),
		lo: lo, hi: hi,
	}
}

// finish closes a trailing partial group, as runQuery did after the walk.
func (q *oracleRun) finish() {
	if q.op == qopDownsample && q.groupN != 0 {
		q.flushGroup()
	}
}

// oracleScratch pools the per-query state so the read path stays
// allocation-free in steady state (the two result slices of a
// downsample, sized once before the walk, are the only per-call
// allocations).
type oracleScratch struct {
	comp  *compress.Compressor
	rec32 [compress.BlockValues]uint32
	rec64 [compress.BlockValues64]uint64
	sum32 [compress.SummaryValues]int32
	sum64 [compress.SummaryValues64]int64
	v     vec.Vec // lossless-block decode buffer
}

// oracleRun accumulates one query across frames.
type oracleRun struct {
	op qop
	// qs is the pooled scratch and width the key's value width, both set
	// by runQuery before the walk.
	qs    *oracleScratch
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

	stats QueryStats
}

// setRef arms the per-ref bound parameters.
func (q *oracleRun) setRef(t1 float64) {
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

// visitExact feeds one exactly-known value (outlier, raw or lossless).
func (q *oracleRun) visitExact(v float64) {
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
func (q *oracleRun) visitApprox(v float64) {
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
func (q *oracleRun) visitDefinite(n int) {
	q.defIn += int64(n)
	q.pos += int64(n)
	q.est += int64(n)
}

func (q *oracleRun) flushGroup() {
	n := float64(q.groupN)
	q.points = append(q.points, q.groupSum/n)
	q.bounds = append(q.bounds, q.groupW/n+sumSlack*q.groupAbs/n)
	q.groupSum, q.groupW, q.groupAbs, q.groupN = 0, 0, 0, 0
}

// padGroup repeats the group's last value until the group closes —
// the query-side mirror of the codec's partial-block padding, so every
// emitted point covers exactly 16 (possibly padded) positions.
func (q *oracleRun) padGroup(v float64, exact bool) {
	for q.groupN != 0 {
		if exact {
			q.visitExact(v)
		} else {
			q.visitApprox(v)
		}
	}
}

// frame runs the query over one verified frame's data — what readLocked
// feeds its query consumer. A lossless frame is decoded and every value
// visited exactly; an AVR frame is walked record by record through the
// cursor the decode and the cache fill read with, so structural damage
// comes back as ErrCorrupt, never a panic.
func (q *oracleRun) frame(ref blockRef, data []byte) error {
	q.setRef(ref.t1)
	q.stats.BytesTouched += ref.frameLen
	q.stats.BytesTotal += int64(ref.valCount) * int64(q.width/8)
	if ref.enc == encLossless {
		return q.lossless(data, int(ref.valCount))
	}
	cur, err := block.Open(streamLayout(q.width), data, int(ref.valCount))
	for err == nil && cur.More() {
		var rec block.Record
		if err = cur.Next(&rec); err != nil {
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
func (q *oracleRun) lossless(data []byte, valCount int) error {
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
func (q *oracleRun) walkRecord32(rec *block.Record) {
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
func (q *oracleRun) walkRecord64(rec *block.Record) {
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
func visitRaw32(q *oracleRun, raw []byte, take int) {
	n := take
	if q.op == qopDownsample {
		n = (take + compress.SubBlockSize - 1) / compress.SubBlockSize * compress.SubBlockSize
	}
	for i := 0; i < n; i++ {
		q.visitExact(float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))))
	}
}

func visitRaw64(q *oracleRun, raw []byte, take int) {
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
func (q *oracleRun) pruneFilter32(bitmap, outliers []byte, method compress.Method, bias int8, take int) bool {
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
func (q *oracleRun) pruneRuns32(bias int8, take int) bool {
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
func (q *oracleRun) pruneFilter64(bitmap []byte, bias int16, take int) bool {
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
func (q *oracleRun) pruneRuns64(bias int16, take int) bool {
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
func (q *oracleRun) widen(smin, smax float64) (float64, float64) {
	lo := smin - q.f*math.Abs(smin) - q.eps
	hi := smax + q.f*math.Abs(smax) + q.eps
	return lo, hi
}

func rangeVerdict(q *oracleRun, smin, smax float64) (in, out bool) {
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

// fixedFloat32 converts a biased Q15.16 fixed value to its final float.
func fixedFloat32(v int32, bias int8) float64 {
	return float64(math.Float32frombits(fixed.RemoveBias(fixed.FixedToFloat(v), bias)))
}

// fixedFloat64 converts a biased Q31.32 fixed value to its final float.
func fixedFloat64(v int64, bias int16) float64 {
	return math.Float64frombits(fixed.RemoveBias64(fixed.FixedToFloat64(v), bias))
}
