// Package store is a persistent, error-bounded block store built on the
// AVR codec: the storage-engine rendering of the paper's memory-side
// machinery. Values are written in fixed-size blocks, each block encoded
// with the AVR lossy codec at the store's t1 threshold and appended to
// CRC-guarded segment files. Blocks whose achieved compression ratio
// falls below a configurable floor are stored exactly through the
// internal/lossless fallback; such a block, live at the store's current
// t1, is flagged as badly compressing by its index entry alone, so both
// the Put path and the background recompression worker skip pointless
// compression attempts — the paper's CMT policy (§4) applied at rest.
//
// Segments are append-only and every frame is CRC-32C guarded, so there
// is no WAL: Open rebuilds the index by scanning the segments and cuts a
// torn tail back to its last whole frame. What an acknowledged Put or
// Delete survives, under each sync policy and kind of crash, is DESIGN.md
// §5.9, which TestPowerCutAnywhere enforces through the fsys seam (fs.go).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"avr"
	"avr/internal/block"
	"avr/internal/compress"
	"avr/internal/obs"
	"avr/internal/readcache"
	"avr/internal/trace"
	"avr/internal/vec"
)

// BlockValues is the store's fixed block size in values. Each block is
// encoded independently (16 AVR codec blocks for fp32, 32 for fp64), so
// it is the granularity of crash recovery, of the ratio-floor decision
// and of the badly-compressing flag.
const BlockValues = 4096

// Config tunes a store. The zero value of any field selects its
// default.
type Config struct {
	// Dir is the segment directory (required; created if missing).
	Dir string
	// T1 is the per-value relative error bound blocks are encoded at
	// (non-positive selects the experiment default, 1/32).
	T1 float64
	// SegmentTargetBytes rolls the active segment once it exceeds this
	// size (default 64 MiB).
	SegmentTargetBytes int64
	// CompactEvery starts a background compaction/recompression worker
	// with this period (0 disables; compaction can still be driven
	// explicitly via CompactOnce).
	CompactEvery time.Duration
	// SyncEveryPut fsyncs the active segment after every Put (durable
	// but slow); by default data is fsynced on segment roll and Close.
	SyncEveryPut bool
	// CacheBytes is the byte budget of the in-memory summary-line read
	// cache (internal/readcache). 0 disables the cache entirely: reads
	// take the disk path exactly as before.
	CacheBytes int64
	// Prefetch enables the stride prefetcher on the read cache: on
	// sequential key patterns (base-0003, base-0004, ...) predicted next
	// keys' summary lines are pulled in by the background fill workers.
	// Ignored when CacheBytes is 0.
	Prefetch bool

	// minDeadFraction is the dead-byte fraction a sealed segment must
	// reach before compaction rewrites it (default 0.25); tests in this
	// package lower it to compact small stores.
	minDeadFraction float64
	// fs is what the store reaches the disk through: osFS, unless a test
	// in this package put its model of a crashing disk here.
	fs fsys
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.T1 <= 0 {
		c.T1, _ = avr.DefaultThresholds()
	}
	if c.SegmentTargetBytes <= 0 {
		c.SegmentTargetBytes = 64 << 20
	}
	if c.minDeadFraction <= 0 {
		c.minDeadFraction = 0.25
	}
	if c.fs == nil {
		c.fs = osFS{}
	}
	return c
}

// Lookup errors.
var (
	// ErrNotFound reports a Get/Delete of a key with no live value.
	ErrNotFound = errors.New("store: key not found")
	// ErrIncomplete reports a Get of a vector whose tail blocks were
	// lost to a torn segment; the returned prefix is valid.
	ErrIncomplete = errors.New("store: incomplete vector (torn tail recovered a prefix)")
	// ErrWidth reports a typed Get against a vector of the other width.
	ErrWidth = errors.New("store: value width mismatch")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("store: closed")
)

// blockRef locates one live block record inside a segment.
type blockRef struct {
	seg      uint32
	off      int64
	frameLen int64
	enc      uint8
	valCount uint32
	t1       float64
}

// entry is one key's live vector: the winning put's sequence number and
// its block refs in vector order. A recovered torn put may have fewer
// refs than blocks(); missing slots are nil-valued (seg 0 is never a
// real segment — recover starts numbering at 1 and segIDs rejects a
// seg-00000000 file — so a zero blockRef marks a hole).
type entry struct {
	seq       uint64
	totalVals uint64
	width     uint8
	refs      []blockRef
}

// blocks returns the vector's full block count.
func (e *entry) blocks() int {
	return int((e.totalVals + BlockValues - 1) / BlockValues)
}

// complete reports whether every block of the vector is present.
func (e *entry) complete() bool {
	if len(e.refs) != e.blocks() {
		return false
	}
	for i := range e.refs {
		if e.refs[i].seg == 0 {
			return false
		}
	}
	return true
}

// tombRef locates a live tombstone record.
type tombRef struct {
	seq      uint64
	seg      uint32
	off      int64
	frameLen int64
}

// segMeta is one segment file's bookkeeping.
type segMeta struct {
	id        uint32
	path      string
	f         file
	size      int64
	liveBytes int64
	deadBytes int64
}

// Store is a persistent approximate block store. All methods are safe
// for concurrent use.
type Store struct {
	cfg Config
	dir directory // cfg.Dir, open: fsynced when a roll has created a segment in it

	// index and tombs are the fold of the live frames (apply); nothing
	// about the values is kept beside them.
	mu      sync.RWMutex
	segs    map[uint32]*segMeta
	active  *segMeta
	nextSeg uint32
	seq     uint64
	index   map[string]*entry
	tombs   map[string]tombRef
	closed  bool

	// enc is the block encoder PutVec runs; its codec pool also serves
	// the read path and the compactor's recompression retries.
	enc *Encoder
	// puts, gets and queries pool the scratch state that keeps the hot
	// paths allocation-free across calls; hits pools the cache-hit
	// reconstruction scratch (see cache.go).
	puts    sync.Pool
	gets    sync.Pool
	queries sync.Pool
	hits    sync.Pool

	// cache holds resident summary lines keyed by store key (nil when
	// Config.CacheBytes is 0; every readcache method is nil-safe).
	cache *readcache.Cache

	// compactMu serialises compaction passes, with each other and with
	// Close: a victim has one pass at a time and outlives it.
	compactMu   sync.Mutex
	stopCompact chan struct{}
	compactWG   sync.WaitGroup
}

// Open opens or creates the store in cfg.Dir, rebuilding the block
// index by scanning every segment. Torn tail segments (crash
// mid-append) are truncated to their last intact frame; corruption
// anywhere else fails the open.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	d, err := cfg.fs.openDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:   cfg,
		dir:   d,
		segs:  make(map[uint32]*segMeta),
		index: make(map[string]*entry),
		tombs: make(map[string]tombRef),
		enc:   NewEncoder(cfg.T1),
	}
	s.puts.New = func() any { return &putScratch{} }
	s.gets.New = func() any { return &getScratch{} }
	// The query scratch carries its own Compressor: decompression never
	// consults the thresholds, so one default-threshold instance serves
	// blocks written at any t1.
	s.queries.New = func() any {
		return &queryScratch{comp: compress.NewCompressor(compress.DefaultThresholds())}
	}
	// Like the query scratch: decompression never consults thresholds,
	// so default-threshold compressors serve lines written at any t1.
	s.hits.New = func() any {
		return &hitScratch{comp: compress.NewCompressor(compress.DefaultThresholds())}
	}
	if cfg.CacheBytes > 0 {
		rc := readcache.Config{MaxBytes: cfg.CacheBytes}
		if cfg.Prefetch {
			rc.Load = func(key string) { s.loadCacheLine(key, true) }
		}
		s.cache = readcache.New(rc)
	}
	if err := s.recover(); err != nil {
		s.closeSegments()
		return nil, err
	}
	if err := s.ensureActive(); err != nil {
		s.closeSegments()
		return nil, err
	}
	if cfg.CompactEvery > 0 {
		s.stopCompact = make(chan struct{})
		s.compactWG.Add(1)
		go s.compactLoop(cfg.CompactEvery)
	}
	return s, nil
}

// segIDs returns the sorted segment IDs present in the directory.
func segIDs(fs fsys, dir string) ([]uint32, error) {
	names, err := fs.segments(dir)
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, 0, len(names))
	for _, n := range names {
		var id uint32
		if _, err := fmt.Sscanf(n, segName, &id); err != nil {
			return nil, fmt.Errorf("store: alien file %q in segment directory %s", n, dir)
		}
		// Segment ID 0 is the blockRef hole marker (see entry): the
		// store never creates it (recover starts numbering at 1), so a
		// seg-00000000 file is alien and would corrupt hole detection if
		// its records were indexed.
		if id == 0 {
			return nil, fmt.Errorf("store: reserved segment id 0 (%q) in segment directory %s", n, dir)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// recover scans existing segments in ID order and rebuilds the index and
// the tombstone set, folding every frame in through apply. The newest
// segment may be torn (crash mid-append) and is truncated to its last
// intact frame; a segment too short to hold a frame, whose header does
// not verify, is what a dead roll left and is removed; any other torn or
// corrupt frame in an older segment is fatal, since everything after it
// would be silently lost.
func (s *Store) recover() error {
	fs := s.cfg.fs
	ids, err := segIDs(fs, s.cfg.Dir)
	if err != nil {
		return err
	}
	for i, id := range ids {
		isTail := i == len(ids)-1
		path := segPath(s.cfg.Dir, id)
		f, size, err := fs.open(path)
		if err != nil {
			return err
		}
		// Registered before the scan: records inside this segment can
		// supersede earlier frames of the same segment, and markDead
		// must find the meta to keep the live/dead split right.
		meta := &segMeta{id: id, path: path, f: f}
		s.segs[id] = meta
		good, err := s.walkSegment(id, size, func(_ int64, _ []byte, frames []segFrame) error {
			for _, fr := range frames {
				meta.liveBytes += fr.n // markDead inside apply corrects this
				s.apply(id, &fr.rec, fr.off, fr.n)
			}
			return nil
		})
		switch {
		case err == nil:
		case size <= int64(segHeaderLen):
			// No header that verifies and not a byte past where one ends:
			// wherever it sits, the file holds no frame. It is what a roll
			// leaves that died, or failed, before its header was durable
			// (rollActive). Removed, not re-headed: then the tail and a
			// leftover in the middle are one case, and what follows — adopt
			// the newest segment that is left, or roll — is ensureActive's
			// job as ever.
			obs.StoreTornTails.Add(1)
			delete(s.segs, id)
			f.Close()
			if rerr := fs.remove(path); rerr != nil {
				return fmt.Errorf("store: removing headerless segment %s: %w", path, rerr)
			}
			continue
		case errors.Is(err, ErrTorn) && isTail:
			obs.StoreTornTails.Add(1)
			if terr := f.Truncate(good); terr != nil {
				return fmt.Errorf("store: truncating torn tail of %s: %w", path, terr)
			}
		default:
			return fmt.Errorf("store: segment %s: %w", path, err)
		}
		meta.size = good
		s.nextSeg = id + 1
	}
	if s.nextSeg == 0 {
		s.nextSeg = 1 // segment 0 is reserved as the blockRef hole marker
	}
	return nil
}

// apply folds one frame, n bytes at off of segment segID, into the
// index: the one transition of what the store holds. Recovery runs it
// over every frame on disk in order; a put, a delete and a compaction
// pass run it over each frame they append, so what a reopen rebuilds is
// what the process held. A frame of a newer seq supersedes the key's
// value or tombstone; one of the same seq is a copy compaction made and
// takes over from the one it was copied from. Caller holds the write
// lock (or is single-threaded recovery).
func (s *Store) apply(segID uint32, rec *record, off, n int64) {
	if rec.Seq > s.seq {
		s.seq = rec.Seq
	}
	switch rec.Kind {
	case recordTombstone:
		if old, ok := s.tombs[rec.Key]; ok {
			if rec.Seq < old.seq {
				s.markDead(segID, n) // stale tombstone
				return
			}
			s.markDead(old.seg, old.frameLen)
		}
		s.tombs[rec.Key] = tombRef{seq: rec.Seq, seg: segID, off: off, frameLen: n}
		if e, ok := s.index[rec.Key]; ok && e.seq < rec.Seq {
			s.dropEntry(e)
			delete(s.index, rec.Key)
		}
	case recordBlock:
		if t, ok := s.tombs[rec.Key]; ok {
			if t.seq > rec.Seq {
				s.markDead(segID, n) // deleted later
				return
			}
			// Re-put after delete: the tombstone is superseded.
			s.markDead(t.seg, t.frameLen)
			delete(s.tombs, rec.Key)
		}
		e := s.index[rec.Key]
		if e != nil && rec.Seq < e.seq {
			s.markDead(segID, n) // superseded put
			return
		}
		if e == nil || rec.Seq > e.seq {
			// The first frame of a newer put: the superseded entry is
			// recycled, refs capacity and all, so a steady-state put
			// allocates nothing.
			if e == nil {
				e = &entry{}
				s.index[rec.Key] = e
			}
			s.dropEntry(e)
			e.seq, e.totalVals, e.width = rec.Seq, rec.TotalVals, rec.Width
			nb := e.blocks()
			e.refs = slices.Grow(e.refs[:0], nb)[:nb]
			clear(e.refs)
		}
		if int(rec.BlockIdx) >= len(e.refs) || rec.TotalVals != e.totalVals || rec.Width != e.width {
			// Same seq but inconsistent shape: writer bug or cross-stitched
			// corruption that CRC cannot catch. Treat as dead.
			s.markDead(segID, n)
			return
		}
		if old := e.refs[rec.BlockIdx]; old.seg != 0 {
			s.markDead(old.seg, old.frameLen)
		}
		e.refs[rec.BlockIdx] = blockRef{
			seg: segID, off: off, frameLen: n,
			enc: rec.Enc, valCount: rec.ValCount, t1: rec.T1,
		}
	}
}

// dropEntry kills every live frame of e, a value superseded or deleted.
func (s *Store) dropEntry(e *entry) {
	for _, ref := range e.refs {
		if ref.seg != 0 {
			s.markDead(ref.seg, ref.frameLen)
		}
	}
}

// markDead moves frameLen bytes of segment segID from live to dead.
func (s *Store) markDead(segID uint32, frameLen int64) {
	if m := s.segs[segID]; m != nil {
		m.liveBytes -= frameLen
		m.deadBytes += frameLen
	}
}

// ensureActive opens an append target: the newest segment if it has
// room, else a fresh one.
func (s *Store) ensureActive() error {
	// recover left nextSeg one past the newest segment it found. A full one
	// is adopted all the same, for the roll to fsync before it seals it:
	// the process that filled it may have died without.
	if s.active = s.segs[s.nextSeg-1]; s.active != nil && s.active.size < s.cfg.SegmentTargetBytes {
		return nil
	}
	return s.rollActive()
}

// rollActive seals the current active segment (fsync) and starts a new
// one: created, headed, and header and name made durable, in that order,
// before a frame can follow — so a put acknowledged after its own fsync
// cannot lose the file it is in (the name) or be cut off from the scan by
// a header that never landed. A roll that fails part way takes its file
// with it (IDs may skip): left behind it would be a segment without a
// header in the middle of the directory. Caller holds the write lock (or
// is single-threaded setup).
func (s *Store) rollActive() error {
	if s.active != nil {
		if err := s.active.f.Sync(); err != nil {
			return err
		}
	}
	id := s.nextSeg
	s.nextSeg++
	path := segPath(s.cfg.Dir, id)
	f, err := s.cfg.fs.create(path)
	if err != nil {
		return err
	}
	m := &segMeta{id: id, path: path, f: f}
	if err = m.append(segmentHeader()); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = s.dir.Sync()
	}
	if err != nil {
		f.Close()
		s.cfg.fs.remove(path) // best effort: recover drops what this leaves
		return err
	}
	s.segs[id] = m
	s.active = m
	return nil
}

// append is the one write site: b lands at the end of the segment.
func (m *segMeta) append(b []byte) error {
	if _, err := m.f.WriteAt(b, m.size); err != nil {
		// What did land goes again, as best it can: a shorter append after
		// it would leave its end standing, for a roll to seal where the
		// scan takes a torn frame for lost data and refuses the open.
		m.f.Truncate(m.size)
		return err
	}
	m.size += int64(len(b))
	return nil
}

// appendLocked writes frames — one serialised frame, a put's frames back
// to back, or a run of frames a compaction pass moves as they are — at
// the end of the active segment in a single write,
// rolling first if the target size is exceeded, and returns where they
// start. The bytes count as live — unless their fsync fails, which leaves
// them dead weight for compaction. Caller holds the write lock.
func (s *Store) appendLocked(frames []byte) (segID uint32, off int64, err error) {
	if s.active.size >= s.cfg.SegmentTargetBytes {
		if err := s.rollActive(); err != nil {
			return 0, 0, err
		}
	}
	off = s.active.size
	if err := s.active.append(frames); err != nil {
		return 0, 0, err
	}
	s.active.liveBytes += int64(len(frames))
	if s.cfg.SyncEveryPut {
		if err := s.active.f.Sync(); err != nil {
			s.markDead(s.active.id, int64(len(frames))) // written, never acknowledged
			return 0, 0, err
		}
	}
	return s.active.id, off, nil
}

// encodedBlock is one block ready to commit: encoded outside the lock by
// PutVec, or lifted out of a container by PutEncoded.
type encodedBlock struct {
	enc      uint8
	valCount uint32
	data     []byte
}

// borrowCodec/returnCodec manage the store's codec pool.
func (s *Store) borrowCodec() *avr.Codec  { return s.enc.borrowCodec() }
func (s *Store) returnCodec(c *avr.Codec) { s.enc.returnCodec(c) }

// putScratch is the reusable per-put state: the blocks to commit, the
// one buffer PutVec encodes them into (its blocks slice it until the
// commit), the lossless-check scratch of PutEncoded, the frame
// serialisation buffer and the record being framed. Pooled so
// steady-state puts allocate nothing.
type putScratch struct {
	blocks []encodedBlock
	buf    []byte
	vals   vec.Vec
	frame  []byte
	rec    record
}

// ensure sizes the scratch for an nb-block put, keeping grown buffers.
func (ps *putScratch) ensure(nb int) {
	if cap(ps.blocks) < nb {
		ps.blocks = make([]encodedBlock, nb)
	}
	ps.blocks = ps.blocks[:nb]
}

// flagged reports whether the block is flagged as badly compressing at
// the store's current threshold (so the compression attempt should be
// skipped); flaggedLocked is for the caller that holds the lock.
func (s *Store) flagged(key string, idx uint32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flaggedLocked(key, idx)
}

// flaggedLocked: the block's live ref is lossless at the current t1 — a
// lossless block records the t1 it failed to compress at, and reopening
// the store at another threshold re-arms the retry.
func (s *Store) flaggedLocked(key string, idx uint32) bool {
	e := s.index[key]
	return e != nil && int(idx) < len(e.refs) && e.refs[idx].flagged(s.cfg.T1)
}

// flagged reports whether the block the ref locates failed to compress
// at t1.
func (r *blockRef) flagged(t1 float64) bool {
	return r.seg != 0 && r.enc == encLossless && r.t1 == t1
}

// Put32 stores an fp32 vector under key, replacing any previous value.
func (s *Store) Put32(key string, vals []float32) (PutResult, error) {
	return s.PutVec(key, vec.Of32(vals), nil)
}

// Put64 stores an fp64 vector under key, replacing any previous value.
func (s *Store) Put64(key string, vals []float64) (PutResult, error) {
	return s.PutVec(key, vec.Of64(vals), nil)
}

// Put32Traced is Put32 with PutVec's per-stage attribution onto sp.
func (s *Store) Put32Traced(key string, vals []float32, sp *trace.Span) (PutResult, error) {
	return s.PutVec(key, vec.Of32(vals), sp)
}

// Put64Traced is Put64 with PutVec's per-stage attribution onto sp.
func (s *Store) Put64Traced(key string, vals []float64, sp *trace.Span) (PutResult, error) {
	return s.PutVec(key, vec.Of64(vals), sp)
}

// PutVec stores vals, of either width, under key, replacing any previous
// value: encode the blocks through the Encoder's loop — the one
// Encoder.AppendPut runs, with the key's flagged blocks as its skip
// hook — then commit them (commitPut): the one write path, which
// PutEncoded joins at the commit with blocks encoded elsewhere.
// Per-stage attribution onto sp: block encoding (StageEncode), store
// mutex wait (StageLock), and the segment append (StageSegWrite). A nil
// span traces nothing at no cost.
func (s *Store) PutVec(key string, vals vec.Vec, sp *trace.Span) (PutResult, error) {
	if err := checkKey(key); err != nil {
		return PutResult{}, err
	}
	if err := checkVec(vals); err != nil {
		return PutResult{}, err
	}
	n := vals.Len()
	ps := s.puts.Get().(*putScratch)
	defer s.puts.Put(ps)
	ps.ensure((n + BlockValues - 1) / BlockValues)
	et := sp.Begin()
	var err error
	ps.buf, err = s.enc.appendBlocks(ps.buf[:0], vals, func(idx uint32) bool { return s.flagged(key, idx) })
	if err != nil {
		return PutResult{}, err
	}
	blocksOf(ps.blocks, ps.buf, n)
	sp.End(trace.StageEncode, et)
	return s.commitPut(key, uint8(vals.Width), uint64(n), ps, sp)
}

// commitPut appends ps.blocks as frames — serialised back to back and
// written with one write, so a put lands whole in one segment — and
// applies each where it landed, atomically with respect to readers. On
// append failure the index keeps the old value.
func (s *Store) commitPut(key string, width uint8, totalVals uint64, ps *putScratch, sp *trace.Span) (PutResult, error) {
	blocks := ps.blocks
	lt := sp.Begin()
	s.mu.Lock()
	sp.End(trace.StageLock, lt)
	defer s.mu.Unlock()
	if s.closed {
		return PutResult{}, ErrClosed
	}
	s.seq++
	raw := int64(totalVals) * int64(width/8)
	res := PutResult{Key: key, Values: int(totalVals), Blocks: len(blocks), RawBytes: raw}
	wt := sp.Begin()
	ps.rec = record{Kind: recordBlock, Seq: s.seq, Key: key, TotalVals: totalVals, Width: width, T1: s.cfg.T1}
	ps.frame = ps.frame[:0]
	for i := range blocks {
		ps.rec.BlockIdx, ps.rec.Enc, ps.rec.ValCount, ps.rec.Data = uint32(i), blocks[i].enc, blocks[i].valCount, blocks[i].data
		ps.frame = appendFrame(ps.frame, &ps.rec)
	}
	segID, off, err := s.appendLocked(ps.frame)
	sp.End(trace.StageSegWrite, wt)
	if err != nil {
		return PutResult{}, err
	}
	res.StoredBytes = int64(len(ps.frame))
	for i, frame := 0, ps.frame; i < len(blocks); i++ {
		eb := &blocks[i]
		n := frameHeaderLen + int64(binary.LittleEndian.Uint32(frame))
		ps.rec.BlockIdx, ps.rec.Enc, ps.rec.ValCount = uint32(i), eb.enc, eb.valCount
		s.apply(segID, &ps.rec, off, n)
		frame, off = frame[n:], off+n
		if eb.enc == encLossless {
			res.LosslessBlocks++
		}
	}
	ps.rec.Data = nil // it may alias the caller's container (PutEncoded)
	// The superseded value's summary line (if resident) is now stale;
	// dropping it under the write lock orders strictly against fills.
	s.invalidateCacheLocked(key)
	res.Ratio = float64(res.RawBytes) / float64(res.StoredBytes)
	obs.StorePuts.Add(1)
	return res, nil
}

// PutResult summarises one Put.
type PutResult struct {
	Key            string  `json:"key"`
	Values         int     `json:"values"`
	Blocks         int     `json:"blocks"`
	LosslessBlocks int     `json:"lossless_blocks"`
	RawBytes       int64   `json:"raw_bytes"`
	StoredBytes    int64   `json:"stored_bytes"`
	Ratio          float64 `json:"ratio"`
}

// GetTraced returns the vector stored under key along with its width
// (32 or 64), with GetVec's per-stage attribution onto sp; exactly one
// of the two slices is non-nil. A vector whose tail was lost to a crash
// returns its recovered prefix plus ErrIncomplete. It reads from disk,
// bypassing the read cache.
func (s *Store) GetTraced(key string, sp *trace.Span) (vals32 []float32, vals64 []float64, width int, err error) {
	v, _, err := s.GetVec(vec.Vec{}, key, false, sp)
	return v.F32, v.F64, v.Width, err
}

// GetCachedTraced is GetTraced through the read cache: exactly one of
// the two returned slices is non-nil, src reports how the read was
// served.
func (s *Store) GetCachedTraced(key string, sp *trace.Span) (vals32 []float32, vals64 []float64, width int, src CacheSource, err error) {
	v, src, err := s.GetVec(vec.Vec{}, key, true, sp)
	return v.F32, v.F64, v.Width, src, err
}

// Get32IntoCached appends the fp32 vector stored under key to dst,
// through the read cache, and reports how the read was served (for the
// X-AVR-Cache header). With a retained buffer (dst[:0]) the read path
// is allocation-free.
func (s *Store) Get32IntoCached(dst []float32, key string, sp *trace.Span) ([]float32, CacheSource, error) {
	v, src, err := s.GetVec(vec.Of32(dst), key, true, sp)
	return v.F32, src, err
}

// Get64IntoCached is Get32IntoCached for fp64 vectors.
func (s *Store) Get64IntoCached(dst []float64, key string, sp *trace.Span) ([]float64, CacheSource, error) {
	v, src, err := s.GetVec(vec.Of64(dst), key, true, sp)
	return v.F64, src, err
}

// GetVec is the one read path of values (GetEncoded reads the blocks
// themselves, through the same frame walk): it resolves key, and appends
// its vector to the side of dst matching the stored width, under a single
// acquisition of the read lock. A dst with Width set demands that width
// (ErrWidth otherwise); Width 0 accepts either and the result's Width
// reports what was found. With useCache (and a cache configured) a
// resident summary line serves the read — SIMD interpolate plus the
// vectorized fixed→float sweep straight into dst, no segment read — and
// a miss takes the disk path; if the cache admits the key's line
// (readcache.Cache.Admit, on the line's bound) the miss also files the
// summary line of each frame it decodes and leaves the key resident
// when it returns. Without useCache the read goes to disk and leaves
// the cache alone. An incomplete vector (torn tail) appends its
// recovered prefix and returns ErrIncomplete alongside it; on any other
// error dst is returned as passed. Stages onto sp: store mutex wait
// (StageLock), then either StageCacheHit or segment reads (StageSegRead)
// and block decodes (StageDecode). A nil span traces nothing at no cost.
func (s *Store) GetVec(dst vec.Vec, key string, useCache bool, sp *trace.Span) (vec.Vec, CacheSource, error) {
	lt := sp.Begin()
	s.mu.RLock()
	sp.End(trace.StageLock, lt)
	defer s.mu.RUnlock()
	if s.closed {
		return dst, CacheNone, ErrClosed
	}
	e, ok := s.index[key]
	if !ok {
		return dst, CacheNone, ErrNotFound
	}
	if dst.Width != 0 && dst.Width != int(e.width) {
		return dst, CacheNone, fmt.Errorf("%w: key %q holds fp%d", ErrWidth, key, e.width)
	}
	out := dst
	out.Width = int(e.width)
	src := CacheNone
	if useCache && s.cache != nil {
		if hit, hsrc, herr, ok := s.tryCacheHit(out, key, e, sp); ok {
			return hit, hsrc, herr
		}
		src = CacheMiss
	}
	fill := src == CacheMiss && s.cache.Admit(key, e.lineBound(key))
	ln, complete, err := s.readLocked(&out, nil, fill, nil, key, e, sp)
	if err != nil {
		return dst, src, err
	}
	if ln != nil {
		// Still under the read lock the frames were walked under, so no
		// writer's invalidation can fall between the walk and the insert.
		s.cache.Put(key, ln.size(key), ln, false)
	}
	obs.StoreGets.Add(1)
	if !complete {
		err = ErrIncomplete
	}
	return out, src, err
}

// getScratch is the pooled read-path state: the frame read-back buffer,
// and the line a cache-filling read files summary lines into as it
// walks. What goes resident is an exact-size copy of that line, so its
// slabs keep their capacity from one read to the next.
type getScratch struct {
	frame []byte
	line  cachedLine
}

// maxRunBytes bounds how many adjacent frames readLocked fetches with one
// read, and with it what a pooled getScratch grows to on a long vector.
const maxRunBytes = 1 << 20

// readLocked walks e's frames in vector order, stopping at the first hole
// (torn put), and hands each verified frame to the consumers asked for:
// dst (its Width e's) has the decoded values appended, ct has the frame's
// block appended as a container block (GetEncoded), with fill the frame's
// summary line is filed into the cache line that comes back, and q runs
// its compressed-domain query over the frame — so a demand miss that
// fills the cache reads, checks and parses its frames once for both, a
// prefetch fill is the same walk with no dst, and a query or an encoded
// read reads exactly what a Get reads. A line that stops at a hole
// covers the recovered prefix and is not marked complete. Whoever asks
// for a line has checked its bound (entry.lineBound) against the cache's
// limit first, so the line comes back whole. A put lands as back-to-back
// frames of one segment, and such a run is fetched with a single read;
// frames that compaction moved apart are read one by one. It reports
// whether every block of the vector was there. Caller holds at least the
// read lock.
func (s *Store) readLocked(dst *vec.Vec, ct *[]byte, fill bool, q *queryRun, key string, e *entry, sp *trace.Span) (*cachedLine, bool, error) {
	gs := s.gets.Get().(*getScratch)
	defer s.gets.Put(gs)
	var ln *cachedLine
	if fill {
		ln = &gs.line
		ln.reset(e)
	}
	var c *avr.Codec
	if dst != nil {
		c = s.borrowCodec()
		defer s.returnCodec(c)
		*dst = dst.Grow(int(e.totalVals))
	}
	refs := e.refs
	for i := 0; i < len(refs); {
		first := refs[i]
		if first.seg == 0 {
			break
		}
		run, j := first.frameLen, i+1
		for ; j < len(refs) && refs[j].seg == first.seg && refs[j].off == first.off+run &&
			run+refs[j].frameLen <= maxRunBytes; j++ {
			run += refs[j].frameLen
		}
		rt := sp.Begin()
		buf, err := s.readSegmentLocked(first.seg, first.off, run, gs)
		sp.End(trace.StageSegRead, rt)
		// i stops on the block that failed, for the error to name.
		for err == nil && i < j {
			n := refs[i].frameLen
			if err = consumeFrame(dst, c, ct, ln, q, refs[i], buf[:n], sp); err == nil {
				buf, i = buf[n:], i+1
			}
		}
		if err != nil {
			return nil, false, fmt.Errorf("store: key %q block %d: %w", key, i, err)
		}
	}
	if ln == nil {
		return nil, e.complete(), nil
	}
	ln.complete = e.complete()
	return ln.clone(), ln.complete, nil
}

// consumeFrame verifies one frame read back from its segment and feeds
// its data to readLocked's consumers, those that are set.
func consumeFrame(dst *vec.Vec, c *avr.Codec, ct *[]byte, ln *cachedLine, q *queryRun, ref blockRef, frame []byte, sp *trace.Span) error {
	rt := sp.Begin()
	rec, _, _, err := verifyFrame(frame, ref.frameLen)
	sp.End(trace.StageSegRead, rt)
	if err == nil && rec.Kind != recordBlock {
		err = fmt.Errorf("%w: kind %d where a block was indexed", ErrCorrupt, rec.Kind)
	}
	if err != nil {
		return err
	}
	data := rec.Data
	if ct != nil { // an encoded read walks alone, and decodes nothing
		*ct = appendContainerBlock(*ct, ref.enc, data)
		return nil
	}
	if q != nil { // a query walks alone: nothing is decoded beside it
		qt := sp.Begin()
		err = q.frame(ref, data)
		sp.End(trace.StageQuery, qt)
		return err
	}
	dt := sp.Begin()
	if dst != nil {
		err = decodeFrame(dst, c, ref, data)
	}
	if err == nil && ln != nil {
		err = ln.addFrame(ref, data)
	}
	sp.End(trace.StageDecode, dt)
	return err
}

// decodeFrame appends the values of one frame's data to dst.
func decodeFrame(dst *vec.Vec, c *avr.Codec, ref blockRef, data []byte) error {
	if ref.enc == encLossless {
		out, err := decodeLosslessTo(*dst, data, int(ref.valCount))
		*dst = out
		return err
	}
	n := dst.Len()
	out, err := dst.DecodeAppend(c, data)
	if err = streamErr(err); err != nil {
		return err
	}
	if out.Len()-n != int(ref.valCount) {
		return fmt.Errorf("%w: AVR stream holds %d values, record says %d",
			ErrCorrupt, out.Len()-n, ref.valCount)
	}
	*dst = out
	return nil
}

// readSegmentLocked is the one read site: it reads n bytes at off of
// segment seg into the scratch buffer (valid until the next read through
// the same scratch). Where the file ends first it returns what there was
// beside io.EOF. Caller holds at least the read lock.
func (s *Store) readSegmentLocked(seg uint32, off, n int64, gs *getScratch) ([]byte, error) {
	m := s.segs[seg]
	if m == nil {
		return nil, fmt.Errorf("%w: segment %d vanished", ErrCorrupt, seg)
	}
	if int64(cap(gs.frame)) < n {
		gs.frame = make([]byte, n)
	}
	got, err := m.f.ReadAt(gs.frame[:n], off)
	return gs.frame[:got], err
}

// segFrame is one verified frame of a scanned chunk: its record (Data
// aliasing the chunk), its offset in the segment and its length.
type segFrame struct {
	rec    record
	off, n int64
}

// walkFrames is the segment scan recovery and compaction share: it walks
// a segment from its header, a chunk at a time, and hands fn each chunk —
// its offset in the segment, its bytes up to the last whole frame, and the
// frames verifyFrame passed in it, all valid until fn returns. fetch
// yields the bytes at an offset, enough for the header and any one frame
// unless the segment ends first, which it reports with io.EOF beside the
// bytes; a frame that straddles the end of a chunk starts the next one.
// It returns the offset of the first byte after the last intact frame. A
// short or checksum-failing tail yields ErrTorn (wrapped), a parse failure
// inside an intact frame ErrCorrupt — after fn has had the frames before
// it — and an error of fetch or fn aborts the scan as it is.
func walkFrames(fetch func(off int64) ([]byte, error), fn func(base int64, chunk []byte, frames []segFrame) error) (int64, error) {
	var frames []segFrame
	for off := int64(0); ; {
		buf, err := fetch(off)
		last := err == io.EOF
		if err != nil && !last {
			return off, err
		}
		p := int64(0)
		if off == 0 {
			if len(buf) < segHeaderLen {
				return 0, fmt.Errorf("%w: short header", ErrTorn)
			}
			if string(buf[:len(segMagic)]) != segMagic {
				return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
			}
			if v := binary.LittleEndian.Uint32(buf[len(segMagic):]); v != segVersion {
				return 0, fmt.Errorf("%w: segment version %d", ErrCorrupt, v)
			}
			p = int64(segHeaderLen)
		}
		frames, err = frames[:0], nil
		for p < int64(len(buf)) && err == nil {
			var fr segFrame
			var key []byte
			if fr.rec, key, fr.n, err = verifyFrame(buf[p:], 0); err == nil {
				fr.rec.Key, fr.off = string(key), off+p
				frames = append(frames, fr)
				p += fr.n
			}
		}
		if err == errShortFrame && !last && len(frames) > 0 {
			err = nil // it is whole in the chunk that starts at it
		}
		if ferr := fn(off, buf[:p], frames); ferr != nil {
			return off, ferr
		}
		if off += p; err != nil || last {
			return off, err
		}
	}
}

// walkSegment runs walkFrames over segment id up to end (the end of the
// file, if that comes first) in chunks of at most maxRunBytes, each read
// under the read lock and verified outside it.
func (s *Store) walkSegment(id uint32, end int64, fn func(base int64, chunk []byte, frames []segFrame) error) (int64, error) {
	gs := s.gets.Get().(*getScratch)
	defer s.gets.Put(gs)
	return walkFrames(func(off int64) ([]byte, error) {
		n := min(maxRunBytes, end-off)
		s.mu.RLock()
		buf, err := s.readSegmentLocked(id, off, n, gs)
		s.mu.RUnlock()
		if err == nil && off+n == end {
			err = io.EOF
		}
		return buf, err
	}, fn)
}

// streamLayout is the record-stream layout of an AVR block of the given
// value width.
func streamLayout(width int) *block.Layout {
	if width == 64 {
		return &block.Layout64
	}
	return &block.Layout32
}

// streamErr classes a rejection by the codec-stream reader (internal/block)
// as ErrCorrupt: a frame that passed its CRC but does not parse is
// damaged all the same. Anything else passes through as is.
func streamErr(err error) error {
	if errors.Is(err, block.ErrMalformed) {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}

// Delete removes key, appending a tombstone so the removal survives
// reopen. Deleting an absent key returns ErrNotFound.
func (s *Store) Delete(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.index[key]; !ok {
		return ErrNotFound
	}
	s.seq++
	rec := record{Kind: recordTombstone, Seq: s.seq, Key: key}
	frame := appendFrame(nil, &rec)
	segID, off, err := s.appendLocked(frame)
	if err != nil {
		return err
	}
	s.apply(segID, &rec, off, int64(len(frame)))
	s.invalidateCacheLocked(key)
	return nil
}

// Keys returns the live keys in sorted order, so Keys-driven scans and
// the avrstore inspect/verify output are stable run to run.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BlockInfo describes one live block of a key for inspection tools and
// tests (cmd/avrstore verify uses it to demand exactness of lossless
// blocks).
type BlockInfo struct {
	Index    int     `json:"index"`
	Lossless bool    `json:"lossless"`
	Values   int     `json:"values"`
	T1       float64 `json:"t1"`
	Segment  uint32  `json:"segment"`
	Bytes    int64   `json:"bytes"`
}

// BlockInfos returns the live blocks of key in vector order (holes from
// a torn put are omitted; the slice is the recovered prefix).
func (s *Store) BlockInfos(key string) ([]BlockInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]BlockInfo, 0, len(e.refs))
	for i, ref := range e.refs {
		if ref.seg == 0 {
			break
		}
		out = append(out, BlockInfo{
			Index: i, Lossless: ref.enc == encLossless,
			Values: int(ref.valCount), T1: ref.t1,
			Segment: ref.seg, Bytes: ref.frameLen,
		})
	}
	return out, nil
}

// T1 returns the store's per-value error threshold.
func (s *Store) T1() float64 { return s.cfg.T1 }

// Closed reports whether the store has been shut down (every operation
// would fail with ErrClosed). Serving tiers surface it through /readyz
// so load balancers and the cluster router's health prober rotate the
// node out as soon as the store stops being able to answer.
func (s *Store) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Close stops the background worker, fsyncs and closes every segment.
func (s *Store) Close() error {
	if s.stopCompact != nil {
		close(s.stopCompact)
		s.compactWG.Wait()
		s.stopCompact = nil
	}
	// Stop the cache fill workers before taking the write lock: an
	// in-flight fill holds the read lock for its whole run.
	s.cache.Close()
	s.compactMu.Lock() // a CompactOnce in flight finishes its victim first
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.active != nil {
		if err := s.active.f.Sync(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range s.segs {
		if err := m.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.dir.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// closeSegments releases file handles after a failed open.
func (s *Store) closeSegments() {
	for _, m := range s.segs {
		m.f.Close()
	}
	s.dir.Close()
}

// checkKey validates a store key.
func checkKey(key string) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d outside [1,%d]", len(key), maxKeyLen)
	}
	return nil
}
