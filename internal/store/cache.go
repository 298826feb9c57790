package store

import (
	"slices"
	"unsafe"

	"avr/internal/block"
	"avr/internal/compress"
	"avr/internal/obs"
	"avr/internal/readcache"
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
// as the lookup — a stale line can exist but can never serve. A demand
// miss the cache admits builds the line from the frames its own disk
// read fetches and inserts it before releasing the read lock (one it
// refuses builds nothing: DESIGN.md §5.11); the stride prefetcher's
// fills, the only work the background workers do, run entirely under
// the read lock too (read frames, parse, insert). Either
// way a writer's invalidation (commitPut, Delete, recompression) cannot
// interleave between a fill's snapshot and its insert: either the fill
// sees the new refs, or the invalidation sees the inserted line.

// CacheSource classifies how a read was served, for the X-AVR-Cache
// response header.
type CacheSource uint8

const (
	// CacheNone: the cache is disabled (no header).
	CacheNone CacheSource = iota
	// CacheMiss: served from disk; the read left the key's line resident
	// only if the cache admitted it (readcache.Cache.Admit). X-AVR-Cache
	// says "miss" either way.
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
	lineSummary = iota // AVR record: sums32 or sums64, bms and outs slabs
	lineRaw            // exact values in raws32 or raws64 (raw record or lossless block)
)

// lineRec is one codec-block record of a cached line. Offsets index the
// line's slabs (the 32 or 64 ones, by the line's width); a bmOff of -1
// marks an outlier-free summary record.
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
// plus exact values for records that have no summary form. Immutable
// once resident.
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
	raws32   []float32
	raws64   []float64
}

// reset empties the line for e's current value, keeping the slabs'
// storage: readLocked files frames into a pooled line.
func (ln *cachedLine) reset(e *entry) {
	*ln = cachedLine{
		seq: e.seq, width: e.width,
		recs: ln.recs[:0], sums32: ln.sums32[:0], sums64: ln.sums64[:0],
		bms: ln.bms[:0], outs: ln.outs[:0], raws32: ln.raws32[:0], raws64: ln.raws64[:0],
	}
}

// clone returns a copy with slabs of exactly the size filled, the form
// that goes resident: what size accounts for is what the line holds.
func (ln *cachedLine) clone() *cachedLine {
	c := *ln
	c.recs, c.sums32, c.sums64 = slices.Clone(ln.recs), slices.Clone(ln.sums32), slices.Clone(ln.sums64)
	c.bms, c.outs = slices.Clone(ln.bms), slices.Clone(ln.outs)
	c.raws32, c.raws64 = slices.Clone(ln.raws32), slices.Clone(ln.raws64)
	return &c
}

// raws is the exact-value slab of the line's width as a Vec to append
// to; setRaws stores it back.
func (ln *cachedLine) raws() vec.Vec {
	return vec.Vec{Width: int(ln.width), F32: ln.raws32, F64: ln.raws64}
}

func (ln *cachedLine) setRaws(v vec.Vec) { ln.raws32, ln.raws64 = v.F32, v.F64 }

const (
	lineHeader   = 96                              // cachedLine struct + Entry bookkeeping
	lineRecBytes = int64(unsafe.Sizeof(lineRec{})) // one recs element
)

// size is the accounted resident footprint in bytes.
func (ln *cachedLine) size(key string) int64 {
	return int64(len(key)) + lineHeader +
		int64(len(ln.recs))*lineRecBytes +
		4*int64(len(ln.sums32)) + 8*int64(len(ln.sums64)) +
		int64(len(ln.bms)) + int64(len(ln.outs)) +
		4*int64(len(ln.raws32)) + 8*int64(len(ln.raws64))
}

// lineBound is an upper bound on size(key) of the line readLocked would
// build for e, from the index alone, without a read. An AVR block files
// no more than its frame holds plus one lineRec per record: what a record
// files — its summary line, bitmap and packed outliers, or a raw record's
// values — is a copy of that record's bytes in the stream. A lossless
// block files its exact values and one lineRec. Like the walk, the bound
// stops at the first hole.
func (e *entry) lineBound(key string) int64 {
	recVals := compress.BlockValues
	if e.width == 64 {
		recVals = compress.BlockValues64
	}
	n := int64(len(key)) + lineHeader
	for _, r := range e.refs {
		if r.seg == 0 {
			break
		}
		if r.enc == encLossless {
			n += int64(r.valCount)*int64(e.width/8) + lineRecBytes
		} else {
			n += r.frameLen + int64((int(r.valCount)+recVals-1)/recVals)*lineRecBytes
		}
	}
	return n
}

// hitScratch is the pooled cache-hit reconstruction state: a
// decompressor, which owns the interpolation scratch and the block a
// partial tail record bounces through.
type hitScratch struct {
	comp *compress.Compressor
}

// loadCacheLine is the readcache fill callback, which the stride
// prefetcher's predictions arrive through: build the key's summary line
// and insert it. Runs on a background fill worker, entirely under the
// store read lock (see the consistency note above).
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
	if err != nil || ln == nil {
		// Unreadable or corrupt (the demand path will report it), or a
		// line that can never fit.
		return
	}
	// Put does the occupancy accounting (resident bytes/lines/evictions).
	s.cache.Put(key, ln.size(key), ln, prefetch)
}

// buildLineLocked extracts the summary line of every resident frame of
// e: readLocked's walk with the line as its only consumer. A line whose
// bound is over what the cache ever admits is not built: nil, no read.
// Caller holds at least the read lock.
func (s *Store) buildLineLocked(key string, e *entry) (*cachedLine, error) {
	if e.lineBound(key) > s.cache.MaxEntryBytes() {
		return nil, nil
	}
	ln, _, err := s.readLocked(nil, nil, true, nil, key, e, nil)
	return ln, err
}

// addFrame files one verified frame's data — the line builder every
// fill goes through, demand miss or prefetch.
func (ln *cachedLine) addFrame(ref blockRef, data []byte) error {
	var err error
	switch {
	case ref.enc == encLossless:
		err = ln.addLossless(data, int(ref.valCount))
	case ln.width == 32:
		err = ln.addAVR32(data, int(ref.valCount))
	default:
		err = ln.addAVR64(data, int(ref.valCount))
	}
	if err == nil {
		ln.nvals += int(ref.valCount)
	}
	return err
}

// addLossless decodes a lossless frame and keeps its exact values: there
// is no summary form, so residency costs full size (the LRU budget
// accounts for it honestly).
func (ln *cachedLine) addLossless(data []byte, valCount int) error {
	at := ln.raws().Len()
	vals, err := decodeLosslessTo(ln.raws(), data, valCount)
	if err != nil {
		return err
	}
	ln.setRaws(vals)
	ln.recs = append(ln.recs, lineRec{kind: lineRaw, take: int32(valCount), rawOff: int32(at)})
	return nil
}

// addAVR32 files one fp32 AVR codec stream into the line's slabs. The
// cursor is the one DecodeTo reads through, so anything the disk path
// would reject is never cached.
func (ln *cachedLine) addAVR32(data []byte, valCount int) error {
	cur, err := block.Open(&block.Layout32, data, valCount)
	var sum [compress.SummaryValues]int32
	var rec block.Record
	for err == nil && cur.More() {
		if err = cur.Next(&rec); err != nil {
			break
		}
		if rec.Raw != nil {
			ln.addRaw(rec.Raw[:4*rec.Values], rec.Values)
			continue
		}
		ln.addSummary(&rec, len(ln.sums32))
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
	var rec block.Record
	for err == nil && cur.More() {
		if err = cur.Next(&rec); err != nil {
			break
		}
		if rec.Raw != nil {
			ln.addRaw(rec.Raw[:8*rec.Values], rec.Values)
			continue
		}
		ln.addSummary(&rec, len(ln.sums64))
		block.ReadSummary64(&sum, rec.Summary)
		ln.sums64 = append(ln.sums64, sum[:]...)
	}
	return streamErr(err)
}

// addRaw files a raw record: its little-endian value bytes, exact.
func (ln *cachedLine) addRaw(le []byte, values int) {
	raws := ln.raws()
	ln.recs = append(ln.recs, lineRec{kind: lineRaw, take: int32(values), rawOff: int32(raws.Len())})
	ln.setRaws(raws.FromLE(le))
}

// addSummary files a compressed record whose summary values the caller
// appends at sumOff, copying its bitmap and outliers into the slabs.
func (ln *cachedLine) addSummary(rec *block.Record, sumOff int) {
	lr := lineRec{kind: lineSummary, method: rec.Method, bias: rec.Bias, take: int32(rec.Values), sumOff: int32(sumOff), bmOff: -1}
	if rec.Bitmap != nil {
		lr.bmOff, lr.outOff = int32(len(ln.bms)), int32(len(ln.outs))
		ln.bms = append(ln.bms, rec.Bitmap...)
		ln.outs = append(ln.outs, rec.Outliers...)
	}
	ln.recs = append(ln.recs, lr)
}

// serve32FromLine reconstructs the line's fp32 values, appending to dst.
// Summary records decompress straight into dst's bit view (the SIMD
// interpolate + fixed→float sweep — the kernel Codec.DecodeTo runs on
// the disk path); raw runs are flat copies. Allocation-free with a
// grown dst.
func (s *Store) serve32FromLine(dst []float32, ln *cachedLine) []float32 {
	hs := s.hits.Get().(*hitScratch)
	defer s.hits.Put(hs)
	p := len(dst)
	dst = slices.Grow(dst, ln.nvals)[:p+ln.nvals]
	// The destination's bit view: float32 and uint32 share size and
	// alignment, so the kernels write IEEE bit patterns in place.
	bits32 := unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst))
	for _, rec := range ln.recs {
		out := bits32[p : p+int(rec.take)]
		switch rec.kind {
		case lineRaw:
			copy(dst[p:p+len(out)], ln.raws32[rec.rawOff:])
		case lineSummary:
			sum := (*[compress.SummaryValues]int32)(ln.sums32[rec.sumOff:])
			var bm, outliers []byte
			if rec.bmOff >= 0 {
				bm = ln.bms[rec.bmOff : rec.bmOff+compress.BitmapBytes]
				outliers = ln.outs[rec.outOff:]
			}
			hs.comp.DecompressBits32(out, sum, bm, outliers, rec.method, int8(rec.bias))
		}
		p += len(out)
	}
	return dst
}

// serve64FromLine is serve32FromLine for fp64 lines.
func (s *Store) serve64FromLine(dst []float64, ln *cachedLine) []float64 {
	hs := s.hits.Get().(*hitScratch)
	defer s.hits.Put(hs)
	p := len(dst)
	dst = slices.Grow(dst, ln.nvals)[:p+ln.nvals]
	bits64 := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst))
	for _, rec := range ln.recs {
		out := bits64[p : p+int(rec.take)]
		switch rec.kind {
		case lineRaw:
			copy(dst[p:p+len(out)], ln.raws64[rec.rawOff:])
		case lineSummary:
			sum := (*[compress.SummaryValues64]int64)(ln.sums64[rec.sumOff:])
			var bm, outliers []byte
			if rec.bmOff >= 0 {
				bm = ln.bms[rec.bmOff : rec.bmOff+compress.BitmapBytes64]
				outliers = ln.outs[rec.outOff:]
			}
			hs.comp.DecompressInto64(out, sum, bm, outliers, rec.bias)
		}
		p += len(out)
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
// checked the cache is on. Returns ok=false on a miss (the caller's
// disk read fills the line); on a hit err is ErrIncomplete when the line
// covers only a torn-put prefix.
func (s *Store) tryCacheHit(dst vec.Vec, key string, e *entry, sp *trace.Span) (out vec.Vec, src CacheSource, err error, ok bool) {
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
			obs.CacheHits.Add(1)
			obs.StoreGets.Add(1)
			if !ln.complete {
				err = ErrIncomplete
			}
			return dst, src, err, true
		}
		// Stale (superseded seq or recompressed): unservable, drop it.
		s.cache.Invalidate(key)
	}
	obs.CacheMisses.Add(1)
	return dst, CacheMiss, nil, false
}

// invalidateCacheLocked drops key's resident line after a write-path
// mutation. Caller holds the write lock, so this orders strictly
// against fills (which insert under the read lock).
func (s *Store) invalidateCacheLocked(key string) {
	if s.cache != nil {
		s.cache.Invalidate(key)
	}
}

// CacheSnapshot reports the read cache's occupancy (zero when off).
func (s *Store) CacheSnapshot() readcache.Stats { return s.cache.Stats() }
