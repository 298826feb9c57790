package store

import (
	"fmt"
	"time"

	"avr/internal/obs"
	"avr/internal/vec"
)

// Background compaction and recompression. Overwrites and deletes leave
// dead frames behind in sealed segments; the worker takes the worst
// fragmented segment, appends its live frames to the active segment and
// deletes the old file. Compaction moves bytes: a live frame is appended
// verbatim — the seq, the t1 and the CRC it was written with survive by
// construction, so what a block's metadata says about how it is stored
// cannot come to disagree with the data — unless it is converted. The
// three cases (moveFrames) follow the paper's CMT recompression policy:
// an AVR block or a tombstone moves verbatim; so does a lossless-fallback
// block flagged as badly compressing at the store's current threshold
// (the retry is provably pointless — same bytes, same threshold); an
// unflagged one (the store was reopened at a different t1) gets one
// fresh AVR attempt and is re-framed at the current t1, as lossy storage
// when it now clears the ratio floor. Either way the copy is applied
// (Store.apply) like any frame a put appends: its seq is the one it was
// copied from, so it takes over that frame's place in the index.

// CompactResult summarises one compaction pass.
type CompactResult struct {
	Segment           uint32 `json:"segment"`
	FramesMoved       int    `json:"frames_moved"`
	BytesMoved        int64  `json:"bytes_moved"`
	BytesReclaimed    int64  `json:"bytes_reclaimed"`
	RecompressTried   int    `json:"recompress_tried"`
	RecompressWon     int    `json:"recompress_won"`
	RecompressSkipped int    `json:"recompress_skipped"`
}

// compactLoop is the background worker: one victim per tick.
func (s *Store) compactLoop(every time.Duration) {
	defer s.compactWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopCompact:
			return
		case <-t.C:
			// Compaction is advisory; the store stays correct without it,
			// so a failed pass (e.g. racing Close) is dropped and retried
			// next tick.
			_, _, _ = s.CompactOnce()
		}
	}
}

// CompactOnce rewrites the most fragmented sealed segment, if any
// exceeds the dead-fraction threshold. It reports whether a segment was
// compacted. Passes run one at a time.
func (s *Store) CompactOnce() (CompactResult, bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	victim := s.pickVictim()
	if victim == nil {
		// No sealed victim, but the active segment itself may be mostly
		// dead — a reopened store adopts the newest recovered segment as
		// active, churn history included. Seal it so it becomes eligible;
		// writes carry on in the fresh segment.
		victim = s.rollFragmentedActive()
	}
	if victim == nil {
		return CompactResult{}, false, nil
	}
	res, err := s.compactSegment(victim)
	if err != nil {
		return res, false, err
	}
	obs.StoreCompactions.Add(1)
	obs.StoreCompactedBytes.Add(res.BytesMoved)
	return res, true, nil
}

// deadFraction is the share of m's frame bytes that are dead (0 for a
// segment that holds no frame).
func (m *segMeta) deadFraction() float64 {
	if m.deadBytes == 0 {
		return 0
	}
	return float64(m.deadBytes) / float64(m.liveBytes+m.deadBytes)
}

// pickVictim returns the sealed segment with the highest dead fraction
// at or above the configured floor (nil when none qualifies, or the store
// is closed).
func (s *Store) pickVictim() *segMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil
	}
	var best *segMeta
	var bestFrac float64
	for _, m := range s.segs {
		if m == s.active {
			continue
		}
		frac := m.deadFraction()
		if m.liveBytes+m.deadBytes == 0 {
			frac = 1 // header-only segment: pure overhead, always worth dropping
		}
		if frac >= s.cfg.minDeadFraction && frac > bestFrac {
			best, bestFrac = m, frac
		}
	}
	return best
}

// rollFragmentedActive seals the active segment when its dead fraction
// alone justifies compaction, and returns it (nil when it does not
// qualify or the roll fails — both mean "nothing to compact").
func (s *Store) rollFragmentedActive() *segMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.active
	if s.closed || m.deadFraction() < s.cfg.minDeadFraction || s.rollActive() != nil {
		return nil
	}
	return m
}

// compactSegment moves every live frame of the sealed segment m into the
// active segment and removes the file. The victim is walked a chunk at a
// time (walkSegment: the read path's read site, the one verifier) and what
// is live of a chunk moves under one acquisition of the write lock, so
// concurrent Puts and Gets see stalls bounded by a chunk's append.
func (s *Store) compactSegment(m *segMeta) (CompactResult, error) {
	res := CompactResult{Segment: m.id}
	// m is sealed: its size stands, whatever Puts do meanwhile.
	if _, err := s.walkSegment(m.id, m.size, func(base int64, chunk []byte, frames []segFrame) error {
		return s.moveFrames(m.id, base, chunk, frames, &res)
	}); err != nil {
		return res, fmt.Errorf("store: compacting %s: %w", m.path, err)
	}

	// Every frame the victim lost, to this pass or to the put that
	// superseded it, has its successor in a segment that was fsynced when
	// it was sealed, or in the active one. Make that one durable too before
	// the victim goes, or a power cut would bring back an older value than
	// the victim held. The fsync runs on the handle, with the lock released:
	// a roll meanwhile has synced the file itself.
	s.mu.RLock()
	active, live := s.active.f, m.liveBytes
	s.mu.RUnlock()
	if live != 0 {
		return res, fmt.Errorf("store: segment %d still has %d live bytes after compaction", m.id, live)
	}
	if err := active.Sync(); err != nil {
		return res, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := m.f.Close(); err != nil {
		return res, err
	}
	if err := s.cfg.fs.remove(m.path); err != nil {
		return res, err
	}
	delete(s.segs, m.id)
	res.BytesReclaimed = m.size - res.BytesMoved
	return res, nil
}

// moveFrames re-homes what is live of one chunk of the victim. A frame
// moves as the bytes it is — seq, t1 and CRC are the ones it was written
// with — unless it is converted, which leaves three cases: an AVR block, a
// tombstone, or a lossless block flagged at the store's current t1 moves
// verbatim, each run of such neighbours with one append; a lossless block
// not flagged there (the store was reopened at another t1) gets one fresh
// AVR attempt outside the lock and is re-framed at the current t1, as AVR
// if it now clears the ratio floor and as the exact block it was if not.
func (s *Store) moveFrames(victim uint32, base int64, chunk []byte, frames []segFrame, res *CompactResult) error {
	var retries []*segFrame
	s.mu.Lock()
	for i := 0; i < len(frames); i++ {
		// The run that starts here: live frames that move as they are.
		j := i
		for ; j < len(frames) && s.frameLive(victim, &frames[j]); j++ {
			if rec := &frames[j].rec; rec.Kind == recordBlock && rec.Enc == encLossless {
				if !s.flaggedLocked(rec.Key, rec.BlockIdx) {
					retries = append(retries, &frames[j])
					break
				}
				obs.StoreRecompressSkipped.Add(1)
				res.RecompressSkipped++
			}
		}
		if j == i {
			continue // dead, or up for a retry
		}
		first, last := &frames[i], &frames[j-1]
		segID, at, err := s.appendLocked(chunk[first.off-base : last.off+last.n-base])
		if err != nil {
			s.mu.Unlock()
			return err
		}
		for ; i < j; i++ {
			s.rehome(&frames[i].rec, segID, at+frames[i].off-first.off, frames[i].n, res)
		}
	}
	s.mu.Unlock()
	for _, fr := range retries {
		if err := s.retryFrame(victim, fr, res); err != nil {
			return err
		}
	}
	return nil
}

// rehome applies the copy of a live record of the victim that now sits n
// bytes at off of segment segID. Caller holds the write lock.
func (s *Store) rehome(rec *record, segID uint32, off, n int64, res *CompactResult) {
	res.FramesMoved++
	res.BytesMoved += n
	s.apply(segID, rec, off, n)
}

// retryFrame gives the live lossless block fr its AVR attempt at the
// store's current threshold and appends the outcome through the framing a
// put uses. Either way the block is now known at the current t1 — as AVR,
// or as failing there — and its frame says so; stamping an exact block
// with another t1 breaks no bound.
func (s *Store) retryFrame(victim uint32, fr *segFrame, res *CompactResult) error {
	obs.StoreRecompressTried.Add(1)
	res.RecompressTried++
	rec := fr.rec
	vals, err := decodeLosslessTo(vec.Vec{Width: int(rec.Width)}, rec.Data, int(rec.ValCount))
	if err != nil {
		return err
	}
	c := s.borrowCodec()
	rec.Data, rec.Enc, err = s.enc.appendBlock(c, nil, vals, false)
	s.returnCodec(c)
	if err != nil {
		return err
	}
	rec.T1 = s.cfg.T1
	frame := appendFrame(nil, &rec)

	// A Put or Delete may have superseded the block while it was encoded.
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.frameLive(victim, fr) {
		return nil
	}
	segID, off, err := s.appendLocked(frame)
	if err != nil {
		return err
	}
	s.rehome(&rec, segID, off, int64(len(frame)), res)
	// Lost, it is flagged at the current threshold and the next pass skips
	// it. Won, the key's resident summary line no longer matches the bytes
	// on disk (a verbatim move keeps them identical).
	if rec.Enc == encAVR {
		obs.StoreRecompressWon.Add(1)
		res.RecompressWon++
		s.invalidateCacheLocked(rec.Key)
	}
	return nil
}

// frameLive reports whether fr, a frame of segment victim, is still the
// current home of its record. Caller holds the lock.
func (s *Store) frameLive(victim uint32, fr *segFrame) bool {
	rec := &fr.rec
	if rec.Kind == recordTombstone {
		t, ok := s.tombs[rec.Key]
		return ok && t.seg == victim && t.off == fr.off
	}
	e, ok := s.index[rec.Key]
	if !ok || e.seq != rec.Seq || int(rec.BlockIdx) >= len(e.refs) {
		return false
	}
	ref := e.refs[rec.BlockIdx]
	return ref.seg == victim && ref.off == fr.off
}
