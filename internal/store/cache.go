package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"avr/internal/block"
	"avr/internal/compress"
	"avr/internal/obs"
	"avr/internal/trace"
	"avr/internal/vec"
)

// Read cache: the store-side mount of internal/readcache. The unit of
// residency is a key's summary line — every encoded frame's summary
// values, outlier bitmap and packed outliers, pre-parsed into flat
// slabs — so a hit reconstructs at memory speed (SIMD interpolate +
// the vectorized fixed→float sweep, writing straight into the caller's
// destination) without touching a segment. Raw records and lossless
// blocks keep their exact value bits resident: they have no cheap
// summary form, and correctness requires hits to be byte-identical to
// the disk decode path.
//
// Consistency: a cached line captures the index entry's seq, and every
// hit re-validates it against the live index under the same read lock
// as the lookup — a stale line can exist but can never serve. Fills run
// entirely under the store read lock (read frames, parse, insert), so a
// writer's invalidation (commitPut, Delete, recompression) cannot
// interleave between a fill's snapshot and its insert: either the fill
// sees the new refs, or the invalidation sees the inserted line.

// CacheSource classifies how a read was served, for the X-AVR-Cache
// response header and the hit/miss latency split.
type CacheSource uint8

const (
	// CacheNone: the cache is disabled (no header).
	CacheNone CacheSource = iota
	// CacheMiss: served from disk; an async fill was requested.
	CacheMiss
	// CacheHit: served from a resident, seq-validated summary line.
	CacheHit
	// CachePrefetch: a hit whose line was brought in by the stride
	// prefetcher (first hit only; later hits report CacheHit).
	CachePrefetch
)

// String returns the X-AVR-Cache header value ("" for CacheNone).
func (cs CacheSource) String() string {
	switch cs {
	case CacheMiss:
		return "miss"
	case CacheHit:
		return "hit"
	case CachePrefetch:
		return "prefetch"
	}
	return ""
}

// lineRec kinds: how one codec-block record of a cached line is
// reconstructed.
const (
	lineSummary32 = iota // fp32 AVR record: sums32/bms/outs slabs
	lineSummary64        // fp64 AVR record: sums64/bms/outs slabs
	lineRaw32            // exact fp32 bits in raws32 (raw record or lossless block)
	lineRaw64            // exact fp64 bits in raws64
)

// lineRec is one codec-block record of a cached line. Offsets index the
// line's slabs; a bmOff of -1 marks an outlier-free summary record.
type lineRec struct {
	kind   uint8
	method compress.Method
	bias   int16 // int8 range for fp32 records
	take   int32 // values this record yields
	sumOff int32 // element offset into sums32/sums64
	bmOff  int32 // byte offset into bms, -1 when no outliers
	outOff int32 // byte offset into outs
	rawOff int32 // element offset into raws32/raws64
}

// cachedLine is the resident form of one key: pre-parsed summary lines
// plus exact bits for records that have no summary form. Immutable
// after construction.
type cachedLine struct {
	seq      uint64
	width    uint8
	complete bool
	nvals    int
	recs     []lineRec
	sums32   []int32
	sums64   []int64
	bms      []byte
	outs     []byte
	raws32   []uint32
	raws64   []uint64
}

// size is the accounted resident footprint in bytes.
func (ln *cachedLine) size(key string) int64 {
	return int64(len(key)) + 96 + // struct + Entry bookkeeping
		int64(len(ln.recs))*int64(unsafe.Sizeof(lineRec{})) +
		4*int64(len(ln.sums32)) + 8*int64(len(ln.sums64)) +
		int64(len(ln.bms)) + int64(len(ln.outs)) +
		4*int64(len(ln.raws32)) + 8*int64(len(ln.raws64))
}

// hitScratch is the pooled cache-hit reconstruction state: a
// decompressor (interpolation scratch) plus bounce buffers for partial
// tail records that cannot be written straight into the destination.
type hitScratch struct {
	comp  *compress.Compressor
	out32 [compress.BlockValues]uint32
	out64 [compress.BlockValues64]uint64
}

// loadCacheLine is the readcache fill callback: build the key's summary
// line and insert it. Runs on a background fill worker, entirely under
// the store read lock (see the consistency note above).
func (s *Store) loadCacheLine(key string, prefetch bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed || s.cache == nil {
		return
	}
	e, ok := s.index[key]
	if !ok {
		return
	}
	ln, err := s.buildLineLocked(key, e)
	if err != nil {
		return // unreadable or corrupt: the demand path will report it
	}
	// Put does the occupancy accounting (resident bytes/lines/evictions).
	s.cache.Put(key, ln.size(key), ln, prefetch)
}

// buildLineLocked extracts the summary line of every resident frame of
// e, stopping at the first hole (torn put): the line then covers only
// the recovered prefix and is never marked complete. Caller holds at
// least the read lock.
func (s *Store) buildLineLocked(key string, e *entry) (*cachedLine, error) {
	gs := s.gets.Get().(*getScratch)
	defer s.gets.Put(gs)
	ln := &cachedLine{seq: e.seq, width: e.width}
	torn := false
	for i := range e.refs {
		ref := e.refs[i]
		if ref.seg == 0 {
			torn = true
			break
		}
		data, err := s.readFrameLocked(ref, gs)
		if err != nil {
			return nil, err
		}
		if ref.enc == encLossless {
			err = ln.addLossless(data, int(ref.valCount))
		} else if e.width == 32 {
			err = ln.addAVR32(data, int(ref.valCount))
		} else {
			err = ln.addAVR64(data, int(ref.valCount))
		}
		if err != nil {
			return nil, fmt.Errorf("store: key %q block %d: %w", key, i, err)
		}
		ln.nvals += int(ref.valCount)
	}
	ln.complete = !torn && len(e.refs) == e.blocks()
	return ln, nil
}

// addLossless decodes a lossless frame and keeps its exact bits: there
// is no summary form, so residency costs full size (the LRU budget
// accounts for it honestly).
func (ln *cachedLine) addLossless(data []byte, valCount int) error {
	vals, err := decodeLosslessTo(vec.Vec{Width: int(ln.width)}, data, valCount)
	if err != nil {
		return err
	}
	rec := lineRec{kind: lineRaw32, take: int32(valCount), rawOff: int32(len(ln.raws32))}
	if ln.width == 64 {
		rec.kind, rec.rawOff = lineRaw64, int32(len(ln.raws64))
	}
	// Only the live side of vals holds anything.
	for _, v := range vals.F32 {
		ln.raws32 = append(ln.raws32, math.Float32bits(v))
	}
	for _, v := range vals.F64 {
		ln.raws64 = append(ln.raws64, math.Float64bits(v))
	}
	ln.recs = append(ln.recs, rec)
	return nil
}

// addAVR32 files one fp32 AVR codec stream into the line's slabs. The
// cursor is the one DecodeTo reads through, so anything the disk path
// would reject is never cached.
func (ln *cachedLine) addAVR32(data []byte, valCount int) error {
	cur, err := block.Open(&block.Layout32, data, valCount)
	var sum [compress.SummaryValues]int32
	for err == nil && cur.More() {
		var rec block.Record
		if rec, err = cur.Next(); err != nil {
			break
		}
		if rec.Raw != nil {
			ln.recs = append(ln.recs, lineRec{kind: lineRaw32, take: int32(rec.Values), rawOff: int32(len(ln.raws32))})
			for i := 0; i < rec.Values; i++ {
				ln.raws32 = append(ln.raws32, binary.LittleEndian.Uint32(rec.Raw[4*i:]))
			}
			continue
		}
		ln.addSummary(lineSummary32, &rec, len(ln.sums32))
		block.ReadSummary32(&sum, rec.Summary)
		ln.sums32 = append(ln.sums32, sum[:]...)
	}
	return streamErr(err)
}

// addAVR64 is addAVR32 for fp64 streams (128-double blocks, 8-value
// summaries, int16 bias).
func (ln *cachedLine) addAVR64(data []byte, valCount int) error {
	cur, err := block.Open(&block.Layout64, data, valCount)
	var sum [compress.SummaryValues64]int64
	for err == nil && cur.More() {
		var rec block.Record
		if rec, err = cur.Next(); err != nil {
			break
		}
		if rec.Raw != nil {
			ln.recs = append(ln.recs, lineRec{kind: lineRaw64, take: int32(rec.Values), rawOff: int32(len(ln.raws64))})
			for i := 0; i < rec.Values; i++ {
				ln.raws64 = append(ln.raws64, binary.LittleEndian.Uint64(rec.Raw[8*i:]))
			}
			continue
		}
		ln.addSummary(lineSummary64, &rec, len(ln.sums64))
		block.ReadSummary64(&sum, rec.Summary)
		ln.sums64 = append(ln.sums64, sum[:]...)
	}
	return streamErr(err)
}

// addSummary files a compressed record whose summary values the caller
// appends at sumOff, copying its bitmap and outliers into the slabs.
func (ln *cachedLine) addSummary(kind uint8, rec *block.Record, sumOff int) {
	lr := lineRec{kind: kind, method: rec.Method, bias: rec.Bias, take: int32(rec.Values), sumOff: int32(sumOff), bmOff: -1}
	if rec.Bitmap != nil {
		lr.bmOff, lr.outOff = int32(len(ln.bms)), int32(len(ln.outs))
		ln.bms = append(ln.bms, rec.Bitmap...)
		ln.outs = append(ln.outs, rec.Outliers...)
	}
	ln.recs = append(ln.recs, lr)
}

// serve32FromLine reconstructs the line's fp32 values, appending to dst.
// Full summary records decompress straight into dst's bit view (the
// SIMD interpolate + fixed→float sweep); partial tails bounce through
// scratch; raw runs are flat copies. Allocation-free with a grown dst.
func (s *Store) serve32FromLine(dst []float32, ln *cachedLine) []float32 {
	hs := s.hits.Get().(*hitScratch)
	defer s.hits.Put(hs)
	base := len(dst)
	if cap(dst)-base < ln.nvals {
		dst = slices.Grow(dst, ln.nvals)
	}
	dst = dst[:base+ln.nvals]
	out := dst[base:]
	// The destination's bit view: float32 and uint32 share size and
	// alignment, so the kernels write IEEE bit patterns in place.
	bits32 := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(out))), len(out))
	p := 0
	for _, rec := range ln.recs {
		take := int(rec.take)
		switch rec.kind {
		case lineRaw32:
			copy(bits32[p:p+take], ln.raws32[rec.rawOff:int(rec.rawOff)+take])
		case lineSummary32:
			sum := (*[compress.SummaryValues]int32)(ln.sums32[rec.sumOff:])
			var bm, outliers []byte
			if rec.bmOff >= 0 {
				bm = ln.bms[rec.bmOff : rec.bmOff+compress.BitmapBytes]
				outliers = ln.outs[rec.outOff:]
			}
			if take == compress.BlockValues {
				hs.comp.DecompressBits32((*[compress.BlockValues]uint32)(bits32[p:]),
					sum, bm, outliers, rec.method, int8(rec.bias))
			} else {
				hs.comp.DecompressBits32(&hs.out32, sum, bm, outliers, rec.method, int8(rec.bias))
				copy(bits32[p:p+take], hs.out32[:take])
			}
		}
		p += take
	}
	return dst
}

// serve64FromLine is serve32FromLine for fp64 lines (scalar interpolate
// — the fp64 pipeline has no SIMD tier — but still segment-read-free).
func (s *Store) serve64FromLine(dst []float64, ln *cachedLine) []float64 {
	hs := s.hits.Get().(*hitScratch)
	defer s.hits.Put(hs)
	base := len(dst)
	if cap(dst)-base < ln.nvals {
		dst = slices.Grow(dst, ln.nvals)
	}
	dst = dst[:base+ln.nvals]
	out := dst[base:]
	bits64 := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(out))), len(out))
	p := 0
	for _, rec := range ln.recs {
		take := int(rec.take)
		switch rec.kind {
		case lineRaw64:
			copy(bits64[p:p+take], ln.raws64[rec.rawOff:int(rec.rawOff)+take])
		case lineSummary64:
			sum := (*[compress.SummaryValues64]int64)(ln.sums64[rec.sumOff:])
			var bm, outliers []byte
			if rec.bmOff >= 0 {
				bm = ln.bms[rec.bmOff : rec.bmOff+compress.BitmapBytes64]
				outliers = ln.outs[rec.outOff:]
			}
			if take == compress.BlockValues64 {
				hs.comp.DecompressInto64((*[compress.BlockValues64]uint64)(bits64[p:]),
					sum, bm, outliers, rec.bias)
			} else {
				hs.comp.DecompressInto64(&hs.out64, sum, bm, outliers, rec.bias)
				copy(bits64[p:p+take], hs.out64[:take])
			}
		}
		p += take
	}
	return dst
}

// serveFromLine reconstructs the line's values, appending to the side of
// dst matching the line's width.
func (s *Store) serveFromLine(dst vec.Vec, ln *cachedLine) vec.Vec {
	if ln.width == 64 {
		dst.F64 = s.serve64FromLine(dst.F64, ln)
	} else {
		dst.F32 = s.serve32FromLine(dst.F32, ln)
	}
	return dst
}

// tryCacheHit serves key from a seq-validated resident line. Caller
// holds the read lock, has resolved e for key, set dst.Width to e's and
// checked the cache is on. Returns ok=false on a miss (after requesting
// an async fill); on a hit err is ErrIncomplete when the line covers
// only a torn-put prefix.
func (s *Store) tryCacheHit(dst vec.Vec, key string, e *entry, sp *trace.Span, t0 time.Time) (out vec.Vec, src CacheSource, err error, ok bool) {
	s.cache.Observe(key)
	if ent, hit := s.cache.Get(key); hit {
		if ln, lok := ent.Meta.(*cachedLine); lok && ln.seq == e.seq && ln.width == e.width {
			ct := sp.Begin()
			dst = s.serveFromLine(dst, ln)
			sp.End(trace.StageCacheHit, ct)
			src = CacheHit
			if ent.ConsumePrefetched() {
				obs.PrefetchUseful.Add(1)
				src = CachePrefetch
			}
			s.finishCacheHit(t0, int64(ln.nvals)*int64(ln.width/8))
			if !ln.complete {
				err = ErrIncomplete
			}
			return dst, src, err, true
		}
		// Stale (superseded seq or recompressed): unservable, drop it.
		s.cache.Invalidate(key)
	}
	obs.CacheMisses.Add(1)
	s.cache.RequestFill(key)
	return dst, CacheMiss, nil, false
}

// finishCacheHit does the shared hit accounting.
func (s *Store) finishCacheHit(t0 time.Time, rawBytes int64) {
	obs.CacheHits.Add(1)
	obs.StoreGets.Add(1)
	obs.StoreGetBytes.Add(rawBytes)
	lat := float64(time.Since(t0).Microseconds())
	getLatencyHist.Observe(lat)
	cacheHitHist.Observe(lat)
}

// invalidateCacheLocked drops key's resident line after a write-path
// mutation. Caller holds the write lock, so this orders strictly
// against fills (which insert under the read lock).
func (s *Store) invalidateCacheLocked(key string) {
	if s.cache != nil {
		s.cache.Invalidate(key)
	}
}

// CacheStats is a point-in-time snapshot of the store-side read cache.
type CacheStats struct {
	Enabled       bool  `json:"enabled"`
	ResidentBytes int64 `json:"resident_bytes"`
	Lines         int   `json:"lines"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// CacheSnapshot reports the read cache's occupancy (zero when off).
func (s *Store) CacheSnapshot() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		Enabled:       true,
		ResidentBytes: s.cache.Bytes(),
		Lines:         s.cache.Len(),
		BudgetBytes:   s.cfg.CacheBytes,
	}
}
