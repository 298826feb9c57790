package store

import (
	"sync"
	"sync/atomic"

	"avr"
	"avr/internal/obs"
	"avr/internal/vec"
)

// Parallel block encoding for the Put path. A put's blocks are encoded
// independently and committed in index order, so fanning the encode loop
// out over the store's persistent worker pool changes wall-clock time
// but not one byte of what lands in the segment: the differential tests
// pin serial-vs-parallel frame identity. The pool is started once at
// Open (Config.EncodeWorkers-1 helper goroutines; the calling goroutine
// is the remaining worker) and stopped by Close, so steady-state puts
// spawn nothing and allocate nothing in either mode.

// encJob is one put's block-encode work order, processed cooperatively
// by the calling goroutine and any helpers that pick it up. Blocks are
// claimed by an atomic counter; each claim encodes exactly one block
// into its own scratch slot. The job lives inside putScratch and is
// reused across puts.
type encJob struct {
	s        *Store
	key      string
	vals     vec.Vec
	ps       *putScratch
	next     atomic.Int64
	helpers  sync.WaitGroup
	firstErr atomic.Pointer[error]
}

// run claims and encodes blocks until none remain. On the first error
// the claim counter is exhausted so other participants stop early; the
// error wins by atomic first-store, keeping run lock-free.
func (j *encJob) run(c *avr.Codec) {
	nb := int64(len(j.ps.blocks))
	for {
		i := j.next.Add(1) - 1
		if i >= nb {
			return
		}
		off := int(i) * BlockValues
		vals := j.vals.Slice(off, min(off+BlockValues, j.vals.Len()))
		// A block flagged at the current threshold skips the AVR attempt:
		// it is known to miss the floor.
		skip := j.s.flagged(j.key, uint32(i))
		if skip {
			obs.StoreCompressSkips.Add(1)
		}
		buf, enc, err := j.s.enc.appendBlock(c, j.ps.bufs[i][:0], vals, skip)
		j.ps.bufs[i] = buf
		if err != nil {
			e := err // heap-boxed only on the error path
			j.firstErr.CompareAndSwap(nil, &e)
			j.next.Store(nb)
			return
		}
		j.ps.blocks[i] = encodedBlock{enc: enc, valCount: uint32(vals.Len()), data: buf}
	}
}

// encodeBlocks fills ps.blocks, serially on the caller's goroutine when
// the store has no worker pool (the allocation-free default) and
// cooperatively with the pool otherwise.
func (s *Store) encodeBlocks(key string, vals vec.Vec, ps *putScratch) error {
	j := &ps.job
	j.s, j.key, j.vals, j.ps = s, key, vals, ps
	j.next.Store(0)
	j.firstErr.Store(nil)
	posted := 0
	if s.encJobs != nil && len(ps.blocks) > 1 {
		// Wake up to EncodeWorkers-1 helpers without ever blocking: a
		// copy the queue cannot take is simply not sent, and a helper
		// that arrives after the claim counter is exhausted returns
		// immediately. Posting is guarded so Close can shut the queue
		// without racing a send.
		want := min(len(ps.blocks)-1, s.cfg.EncodeWorkers-1)
		j.helpers.Add(want)
		s.encMu.RLock()
		if !s.encStopped {
			for w := 0; w < want; w++ {
				select {
				case s.encJobs <- j:
					posted++
				default:
					w = want // queue full; stop trying
				}
			}
		}
		s.encMu.RUnlock()
		for skip := posted; skip < want; skip++ {
			j.helpers.Done()
		}
	}
	c := s.borrowCodec()
	j.run(c)
	s.returnCodec(c)
	if posted > 0 {
		j.helpers.Wait()
	}
	// Drop caller references so the pooled scratch does not pin them.
	j.key, j.vals = "", vec.Vec{}
	if ep := j.firstErr.Load(); ep != nil {
		return *ep
	}
	obs.StoreEncodes.Add(1)
	return nil
}

// encWorker is one persistent pool goroutine: it serves jobs until the
// queue is closed, then drains whatever is still buffered (a late copy
// of a finished job costs one claim probe) so no put waits forever.
func (s *Store) encWorker() {
	defer s.encWG.Done()
	for j := range s.encJobs {
		c := s.borrowCodec()
		j.run(c)
		s.returnCodec(c)
		j.helpers.Done()
	}
}
