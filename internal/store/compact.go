package store

import (
	"fmt"
	"os"
	"sync"
	"time"

	"avr/internal/obs"
	"avr/internal/vec"
)

// Background compaction and recompression. Overwrites and deletes leave
// dead frames behind in sealed segments; the worker rewrites the worst
// fragmented segment's live frames into the active segment and deletes
// the old file. While moving, it applies the paper's CMT recompression
// policy to lossless-fallback blocks: a block flagged in the
// badly-compressing-block table at the store's current threshold is
// copied as-is (the retry is provably pointless — same bytes, same
// threshold), while an unflagged one (typically after the store was
// reopened at a different t1) gets one fresh AVR attempt and converts
// to lossy storage when it now clears the ratio floor.

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
// compacted.
func (s *Store) CompactOnce() (CompactResult, bool, error) {
	victim := s.pickVictim()
	if victim == 0 {
		// No sealed victim, but the active segment itself may be mostly
		// dead — a reopened store adopts the newest recovered segment as
		// active, churn history included. Seal it so it becomes eligible;
		// writes carry on in the fresh segment.
		victim = s.rollFragmentedActive()
	}
	if victim == 0 {
		return CompactResult{}, false, nil
	}
	t0 := time.Now()
	res, err := s.compactSegment(victim)
	if err != nil {
		return res, false, err
	}
	compactLatencyHist.Observe(float64(time.Since(t0).Milliseconds()))
	obs.StoreCompactions.Add(1)
	obs.StoreCompactedBytes.Add(res.BytesReclaimed)
	return res, true, nil
}

// pickVictim returns the sealed segment with the highest dead fraction
// at or above the configured floor (0 when none qualifies).
func (s *Store) pickVictim() uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0
	}
	var best uint32
	var bestFrac float64
	for id, m := range s.segs {
		if s.active != nil && id == s.active.id {
			continue
		}
		total := m.liveBytes + m.deadBytes
		if total == 0 {
			// Header-only segment: pure overhead, always worth dropping.
			best, bestFrac = id, 1
			continue
		}
		frac := float64(m.deadBytes) / float64(total)
		if frac >= s.cfg.MinDeadFraction && frac > bestFrac {
			best, bestFrac = id, frac
		}
	}
	return best
}

// rollFragmentedActive seals the active segment when its dead fraction
// alone justifies compaction, returning its ID (0 when it does not
// qualify or the roll fails — both mean "nothing to compact").
func (s *Store) rollFragmentedActive() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.active == nil {
		return 0
	}
	m := s.active
	total := m.liveBytes + m.deadBytes
	if total == 0 {
		return 0
	}
	if frac := float64(m.deadBytes) / float64(total); frac < s.cfg.MinDeadFraction {
		return 0
	}
	id := m.id
	if err := s.rollActive(); err != nil {
		return 0
	}
	return id
}

// compactSegment moves every live frame of segment id into the active
// segment and removes the file. Locking is per-frame so concurrent Puts
// and Gets see bounded stalls.
func (s *Store) compactSegment(id uint32) (CompactResult, error) {
	res := CompactResult{Segment: id}
	s.mu.RLock()
	m := s.segs[id]
	if m == nil || s.closed {
		s.mu.RUnlock()
		return res, ErrClosed
	}
	path, sizeBefore := m.path, m.size
	// Scan from a dedicated read handle; the victim is sealed, so the
	// snapshot is stable even with concurrent Puts to the active segment.
	f, err := os.Open(path)
	s.mu.RUnlock()
	if err != nil {
		return res, err
	}
	defer f.Close()

	var frames []scannedFrame
	if _, err := scanSegment(f, func(rec record, off, frameLen int64) error {
		rec.Data = append([]byte(nil), rec.Data...) // scanner reuses its buffer
		frames = append(frames, scannedFrame{rec, off, frameLen})
		return nil
	}); err != nil {
		return res, fmt.Errorf("store: compacting %s: %w", path, err)
	}

	// With multiple encode workers, the AVR retry of each recompression
	// candidate is precomputed concurrently before the serial move loop;
	// retryCompress is a pure function of the record and the store
	// threshold, so a precomputed outcome never goes stale.
	var pres []*retryOutcome
	if s.cfg.EncodeWorkers > 1 {
		pres = s.precomputeRetries(id, frames)
	}
	for i, fr := range frames {
		var pre *retryOutcome
		if pres != nil {
			pre = pres[i]
		}
		if err := s.moveFrame(id, fr.rec, fr.off, fr.frameLen, pre, &res); err != nil {
			return res, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return res, ErrClosed
	}
	m = s.segs[id]
	if m == nil {
		return res, nil
	}
	if m.liveBytes != 0 {
		return res, fmt.Errorf("store: segment %d still has %d live bytes after compaction",
			id, m.liveBytes)
	}
	if err := m.f.Close(); err != nil {
		return res, err
	}
	if err := os.Remove(path); err != nil {
		return res, err
	}
	delete(s.segs, id)
	obs.StoreSegmentsDeleted.Add(1)
	res.BytesReclaimed = sizeBefore - res.BytesMoved
	return res, nil
}

// scannedFrame is one frame captured from a compaction victim.
type scannedFrame struct {
	rec      record
	off      int64
	frameLen int64
}

// retryOutcome caches one precomputed retryCompress result.
type retryOutcome struct {
	won bool
	rec record
	err error
}

// precomputeRetries runs retryCompress concurrently (bounded by the
// encode-worker pool) for every frame that looks like a live
// recompression candidate. The probe is optimistic — a stale answer
// costs a wasted or missing precompute, never correctness, because
// moveFrame re-decides the policy under the lock and falls back to an
// inline retry when its slot is nil.
func (s *Store) precomputeRetries(victim uint32, frames []scannedFrame) []*retryOutcome {
	outs := make([]*retryOutcome, len(frames))
	var wg sync.WaitGroup
	for i := range frames {
		rec := frames[i].rec
		if rec.Kind != recordBlock || rec.Enc != encLossless {
			continue
		}
		s.mu.RLock()
		closed := s.closed
		live, isTomb := s.frameLive(victim, rec, frames[i].off)
		fe, flagged := s.flags[blockKey{rec.Key, rec.BlockIdx}]
		s.mu.RUnlock()
		if closed || !live || isTomb || (flagged && fe.t1 == s.cfg.T1) {
			continue
		}
		wg.Add(1)
		s.encSem <- struct{}{}
		go func(i int, rec record) {
			defer wg.Done()
			defer func() { <-s.encSem }()
			won, converted, err := s.retryCompress(rec)
			outs[i] = &retryOutcome{won: won, rec: converted, err: err}
		}(i, rec)
	}
	wg.Wait()
	return outs
}

// moveFrame re-appends one frame if it is still live, applying the
// recompression policy to lossless blocks. pre, when non-nil, is the
// frame's precomputed retryCompress outcome.
func (s *Store) moveFrame(victim uint32, rec record, off, frameLen int64, pre *retryOutcome, res *CompactResult) error {
	// Fast liveness check and (for lossless blocks) policy decision.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	live, isTomb := s.frameLive(victim, rec, off)
	retry := false
	if live && !isTomb && rec.Enc == encLossless {
		fe, flagged := s.flags[blockKey{rec.Key, rec.BlockIdx}]
		retry = !(flagged && fe.t1 == s.cfg.T1)
	}
	s.mu.RUnlock()
	if !live {
		return nil
	}

	newRec := rec
	if !isTomb && rec.Enc == encLossless {
		if !retry {
			obs.StoreRecompressSkipped.Add(1)
			res.RecompressSkipped++
		} else {
			obs.StoreRecompressTried.Add(1)
			res.RecompressTried++
			var won bool
			var converted record
			var err error
			if pre != nil {
				won, converted, err = pre.won, pre.rec, pre.err
			} else {
				won, converted, err = s.retryCompress(rec)
			}
			if err != nil {
				return err
			}
			if won {
				obs.StoreRecompressWon.Add(1)
				res.RecompressWon++
				newRec = converted
			}
		}
	}

	// Re-append under the write lock, re-checking liveness: a Put or
	// Delete may have superseded the frame while we were encoding.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	live, isTomb = s.frameLive(victim, rec, off)
	if !live {
		return nil
	}
	// A still-lossless block either skipped (flag at the current t1) or
	// retried and lost at the current t1 — either way the threshold it
	// is known to fail at is the current one.
	newRec.T1 = s.cfg.T1
	segID, newOff, newLen, err := s.appendFrameLocked(&newRec)
	if err != nil {
		return err
	}
	res.FramesMoved++
	res.BytesMoved += newLen
	s.markDead(victim, frameLen)
	if isTomb {
		s.tombs[rec.Key] = tombRef{seq: rec.Seq, seg: segID, off: newOff, frameLen: newLen}
		return nil
	}
	e := s.index[rec.Key]
	e.refs[rec.BlockIdx] = blockRef{
		seg: segID, off: newOff, frameLen: newLen,
		enc: newRec.Enc, valCount: newRec.ValCount, t1: newRec.T1,
	}
	if newRec.Enc != rec.Enc {
		// Recompression converted the block (lossless → AVR): the key's
		// resident summary line no longer matches the on-disk bytes. A
		// pure move keeps the bytes identical, so only conversion
		// invalidates.
		s.invalidateCacheLocked(rec.Key)
	}
	bk := blockKey{rec.Key, rec.BlockIdx}
	if newRec.Enc == encAVR && rec.Enc == encLossless {
		delete(s.flags, bk) // converted: no longer badly-compressing
	} else if newRec.Enc == encLossless && rec.Enc == encLossless {
		// Retried and lost (or skipped): flag at the current threshold so
		// the next pass skips it.
		fe := s.flags[bk]
		if fe.t1 != s.cfg.T1 {
			fe = flagEntry{t1: s.cfg.T1}
		}
		fe.fails++
		s.flags[bk] = fe
	}
	return nil
}

// frameLive reports whether the frame at (victim, off) is still the
// current home of its record, and whether it is a tombstone.
func (s *Store) frameLive(victim uint32, rec record, off int64) (live, isTomb bool) {
	if rec.Kind == recordTombstone {
		t, ok := s.tombs[rec.Key]
		return ok && t.seg == victim && t.off == off, true
	}
	e, ok := s.index[rec.Key]
	if !ok || e.seq != rec.Seq || int(rec.BlockIdx) >= len(e.refs) {
		return false, false
	}
	ref := e.refs[rec.BlockIdx]
	return ref.seg == victim && ref.off == off, false
}

// retryCompress re-runs AVR on a lossless block at the store's current
// threshold. It returns the converted record when the ratio floor is
// met.
func (s *Store) retryCompress(rec record) (won bool, out record, err error) {
	vals, err := decodeLosslessTo(vec.Vec{Width: int(rec.Width)}, rec.Data, int(rec.ValCount))
	if err != nil {
		return false, out, err
	}
	c := s.borrowCodec()
	defer s.returnCodec(c)
	enc, err := vals.EncodeTo(c, nil)
	if err != nil {
		return false, out, err
	}
	rawLen := int(rec.ValCount) * int(rec.Width/8)
	if float64(rawLen)/float64(len(enc)) < s.cfg.RatioFloor {
		return false, out, nil
	}
	out = rec
	out.Enc = encAVR
	out.Data = enc
	return true, out, nil
}
