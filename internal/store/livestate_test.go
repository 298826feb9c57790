package store

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"avr/internal/vec"
	"avr/internal/workloads"
)

// TestLiveStateIsWhatReopenRebuilds holds the in-memory state of a running
// store to what its own reopen rebuilds from the segments: the index (seq,
// length, width and every block ref), the tombstones, Stats() and each
// segment's live and dead bytes. Seeded schedules of smooth and noise puts
// of both widths, overwrites shorter and longer than the old value,
// deletes, compaction passes — one in a while whose unlink fails, leaving
// the victim beside the copies it moved — and reopens, some at another t1
// with compaction after them (recompression), are checked at every reopen,
// then on the disk a process kill leaves and after a clean Close. The
// named cases pin what the drift between the two used to cost.
func TestLiveStateIsWhatReopenRebuilds(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			lr := newLiveRun(t, seed)
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < 40; op++ {
				key := string(rune('a' + rng.Intn(4)))
				switch p := rng.Intn(100); {
				case p < 12:
					if err := lr.s.Delete(key); err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatal(err)
					}
				case p < 28:
					lr.compact(rng.Intn(4) == 0)
				case p < 34:
					lr.reopen([]float64{0, 1e-7, 1.0 / 64}[rng.Intn(3)])
				default:
					dist := []string{"heat", "ramp", "normal"}[rng.Intn(3)]
					n := 1 + rng.Intn(3*BlockValues)
					lr.put(key, dist, 32<<rng.Intn(2), n, uint64(seed)<<16+uint64(op))
				}
			}
			lr.checkCrashAndClose()
		})
	}

	// A key deleted, then put again after a restart, is stored as it would
	// have been without the restart: the deleted noise's lossless blocks
	// are no reason to skip the AVR attempt for what replaces them.
	t.Run("delete-reopen-reput", func(t *testing.T) {
		lr := newLiveRun(t, 1)
		lr.put("k", "normal", 32, 3*BlockValues, 1)
		if err := lr.s.Delete("k"); err != nil {
			t.Fatal(err)
		}
		lr.reopen(0)
		if res := lr.put("k", "heat", 32, 3*BlockValues, 2); res.LosslessBlocks != 0 {
			t.Errorf("heat re-put after delete and reopen: %d of %d blocks lossless, want 0", res.LosslessBlocks, res.Blocks)
		}
		lr.checkCrashAndClose()
	})

	// A flag is a live lossless block at the current t1: a shorter
	// overwrite leaves none behind past its end, so a longer re-put tries
	// AVR on its new tail, and a reopen at another t1 flags nothing.
	t.Run("flags-are-live-lossless-refs", func(t *testing.T) {
		lr := newLiveRun(t, 1)
		lr.put("k", "normal", 32, 3*BlockValues, 1)
		lr.put("k", "normal", 32, BlockValues, 2)
		if st := lr.s.Stats(); st.FlaggedBlocks != 1 {
			t.Errorf("after a one-block overwrite of three noise blocks: %d flagged blocks, want 1", st.FlaggedBlocks)
		}
		if res := lr.put("k", "heat", 32, 3*BlockValues, 3); res.LosslessBlocks != 1 {
			t.Errorf("heat re-put over one flagged block: %d of %d blocks lossless, want 1 (block 0 only)", res.LosslessBlocks, res.Blocks)
		}
		lr.put("k", "normal", 32, 2*BlockValues, 4)
		lr.reopen(1e-7)
		if st := lr.s.Stats(); st.FlaggedBlocks != 0 {
			t.Errorf("reopened at another t1: %d flagged blocks, want 0", st.FlaggedBlocks)
		}
		lr.checkCrashAndClose()
	})

	// Compaction moves a tombstone, and the unlink of the victim fails: the
	// disk holds the tombstone twice under one seq, and recovery keeps the
	// later copy, the one the running store points at.
	t.Run("tombstone-moved-unlink-failed", func(t *testing.T) {
		lr := newLiveRun(t, 1)
		lr.put("k", "normal", 32, BlockValues, 1)
		if err := lr.s.Delete("k"); err != nil {
			t.Fatal(err)
		}
		lr.compact(true)
		if len(lr.s.segs) < 2 {
			t.Fatalf("the victim went: %d segments", len(lr.s.segs))
		}
		lr.checkCrashAndClose()
	})
}

// liveRun is one schedule on the model disk: the store it runs and the
// config it opens it with.
type liveRun struct {
	t    *testing.T
	seed int64
	fs   *memFS
	cfg  Config
	s    *Store
}

func newLiveRun(t *testing.T, seed int64) *liveRun {
	lr := &liveRun{t: t, seed: seed, fs: newMemFS(seed)}
	lr.cfg = Config{Dir: "d", SegmentTargetBytes: 24 << 10, minDeadFraction: 0.05, fs: lr.fs}
	lr.s = lr.open(lr.cfg)
	t.Cleanup(func() { lr.s.Close() })
	return lr
}

func (lr *liveRun) open(cfg Config) *Store {
	lr.t.Helper()
	s, err := Open(cfg)
	if err != nil {
		lr.t.Fatal(err)
	}
	return s
}

func (lr *liveRun) put(key, dist string, width, n int, seed uint64) PutResult {
	lr.t.Helper()
	v64, err := workloads.GenFloat64(dist, n, seed)
	if err != nil {
		lr.t.Fatal(err)
	}
	vals := vec.Of64(v64)
	if width == 32 {
		vals = vec.Of32(make([]float32, n))
		for i, x := range v64 {
			vals.F32[i] = float32(x)
		}
	}
	res, err := lr.s.PutVec(key, vals, nil)
	if err != nil {
		lr.t.Fatal(err)
	}
	return res
}

// compact runs passes until there is nothing to compact; with failUnlink
// the first segment removal fails, which ends the run of passes there.
func (lr *liveRun) compact(failUnlink bool) {
	lr.t.Helper()
	if failUnlink {
		lr.fs.hook = func(c *ioCall) error {
			if c.op == "remove" {
				lr.fs.hook = nil
				return errEIO
			}
			return nil
		}
		defer func() { lr.fs.hook = nil }()
	}
	for i := 0; i < 8; i++ {
		_, did, err := lr.s.CompactOnce()
		if failUnlink && errors.Is(err, errEIO) {
			return
		}
		if err != nil {
			lr.t.Fatal(err)
		}
		if !did {
			return
		}
	}
}

// reopen closes the store and opens it again, at the same t1 first, which
// must rebuild what the store held, and then at t1 if that is another.
func (lr *liveRun) reopen(t1 float64) {
	lr.t.Helper()
	was := heldBy(lr.s)
	if err := lr.s.Close(); err != nil {
		lr.t.Fatal(err)
	}
	lr.s = lr.open(lr.cfg)
	lr.expect(was, heldBy(lr.s), "reopen")
	if t1 != lr.cfg.T1 {
		lr.s.Close()
		lr.cfg.T1 = t1
		lr.s = lr.open(lr.cfg)
	}
}

// checkCrashAndClose holds what the store holds to what an open rebuilds
// on the disk a process kill leaves, then after a clean Close.
func (lr *liveRun) checkCrashAndClose() {
	lr.t.Helper()
	was := heldBy(lr.s)
	cfg := lr.cfg
	cfg.fs = lr.fs.crash(processKill, lr.seed)
	r := lr.open(cfg)
	lr.expect(was, heldBy(r), "open after a process kill")
	r.Close()
	lr.reopen(lr.cfg.T1)
}

// held is a store's in-memory state, copied out.
type held struct {
	index map[string]entry
	tombs map[string]tombRef
	stats Stats
}

func heldBy(s *Store) held {
	st := s.Stats()
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := held{index: make(map[string]entry), tombs: maps.Clone(s.tombs), stats: st}
	for k, e := range s.index {
		h.index[k] = entry{seq: e.seq, totalVals: e.totalVals, width: e.width, refs: slices.Clone(e.refs)}
	}
	return h
}

// expect fails the test where got, the state an open rebuilt, differs
// from want, the state the store it opened after held. A segment the open
// added (a fresh active one) holds no frame and is left out of the
// comparison, and the segment it took over from is sealed.
func (lr *liveRun) expect(want, got held, when string) {
	lr.t.Helper()
	for k, e := range want.index {
		if g, ok := got.index[k]; !ok || !reflect.DeepEqual(e, g) {
			lr.t.Errorf("%s: key %q rebuilt as %+v (present %v), held %+v", when, k, g, ok, e)
		}
	}
	for k := range got.index {
		if _, ok := want.index[k]; !ok {
			lr.t.Errorf("%s: key %q rebuilt, held nowhere", when, k)
		}
	}
	if !reflect.DeepEqual(want.tombs, got.tombs) {
		lr.t.Errorf("%s: tombstones rebuilt as %+v, held %+v", when, got.tombs, want.tombs)
	}
	wantSegs := slices.Clone(want.stats.SegmentList)
	gotSegs := got.stats.SegmentList[:0:0]
	for _, g := range got.stats.SegmentList {
		wasHeld := slices.ContainsFunc(wantSegs, func(w SegmentStats) bool { return w.ID == g.ID })
		if wasHeld || g.LiveBytes+g.DeadBytes != 0 {
			gotSegs = append(gotSegs, g)
			continue
		}
		got.stats.Segments--
		got.stats.DiskBytes -= g.Bytes
		if got.stats.DiskBytes > 0 {
			got.stats.CompactionDebt = float64(got.stats.DeadBytes) / float64(got.stats.DiskBytes)
		}
		for i := range wantSegs {
			wantSegs[i].Active = false
		}
	}
	want.stats.SegmentList, got.stats.SegmentList = wantSegs, gotSegs
	if !reflect.DeepEqual(want.stats, got.stats) {
		lr.t.Errorf("%s: Stats rebuilt as\n%+v\nheld\n%+v", when, got.stats, want.stats)
	}
}
