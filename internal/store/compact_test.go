package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"avr/internal/obs"
	"avr/internal/vec"
)

// counterDeltas snapshots the obs counters the recompression policy
// tests assert on. expvar state is process-global, so tests check
// deltas.
type counterDeltas struct {
	tried, skipped, won, compactions, skips int64
}

func snapCounters() counterDeltas {
	return counterDeltas{
		tried:       obs.StoreRecompressTried.Value(),
		skipped:     obs.StoreRecompressSkipped.Value(),
		won:         obs.StoreRecompressWon.Value(),
		compactions: obs.StoreCompactions.Value(),
		skips:       obs.StoreCompressSkips.Value(),
	}
}

func (c counterDeltas) since(prev counterDeltas) counterDeltas {
	return counterDeltas{
		tried:       c.tried - prev.tried,
		skipped:     c.skipped - prev.skipped,
		won:         c.won - prev.won,
		compactions: c.compactions - prev.compactions,
		skips:       c.skips - prev.skips,
	}
}

// fillAndFragment interleaves long-lived keys with repeated overwrites
// of one churn key, so sealed segments end up mixing live frames (to be
// moved) with dead ones (to be reclaimed).
func fillAndFragment(t *testing.T, s *Store, dist string, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		keep := genF32(t, dist, BlockValues, uint64(r)+1000)
		if _, err := s.Put32(fmt.Sprintf("keep-%d", r), keep); err != nil {
			t.Fatal(err)
		}
		vals := genF32(t, dist, BlockValues, uint64(r)+1)
		if _, err := s.Put32("churn", vals); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompactionReclaimsDeadBytes(t *testing.T) {
	s := openTest(t, Config{SegmentTargetBytes: 64 << 10})
	fillAndFragment(t, s, "normal", 12)
	st := s.Stats()
	if st.Segments < 2 || st.DeadBytes == 0 {
		t.Fatalf("fragmentation setup failed: %+v", st)
	}
	keep, err := get32(s, "churn")
	if err != nil {
		t.Fatal(err)
	}

	compacted := obs.StoreCompactedBytes.Value()
	sum := compactAll(t, s)
	// avr.store_compacted_bytes is read as the bytes compaction rewrote
	// (avrtop's "MB rewritten", bench/'s write amplification): the live
	// frames moved, not the dead bytes freed. The passes here do both.
	if sum.BytesMoved == 0 || sum.BytesMoved == sum.BytesReclaimed {
		t.Fatalf("setup: passes moved %d bytes and reclaimed %d; want both, apart", sum.BytesMoved, sum.BytesReclaimed)
	}
	if d := obs.StoreCompactedBytes.Value() - compacted; d != sum.BytesMoved {
		t.Errorf("avr.store_compacted_bytes moved by %d, want the %d bytes moved (%d reclaimed)", d, sum.BytesMoved, sum.BytesReclaimed)
	}
	after := s.Stats()
	if after.DiskBytes >= st.DiskBytes {
		t.Errorf("disk bytes %d after compaction, was %d", after.DiskBytes, st.DiskBytes)
	}
	if after.CompactionDebt > 0.5*st.CompactionDebt {
		t.Errorf("compaction debt %.3f after, was %.3f", after.CompactionDebt, st.CompactionDebt)
	}
	got, err := get32(s, "churn")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(keep[i]) {
			t.Fatalf("value %d changed across compaction", i)
		}
	}
}

// TestRecompressionSkipsFlaggedBlocks pins the CMT-mirroring policy: a
// lossless block flagged at the store's current threshold is copied,
// never re-tried — demonstrated by the obs counters.
func TestRecompressionSkipsFlaggedBlocks(t *testing.T) {
	s := openTest(t, Config{SegmentTargetBytes: 64 << 10})
	// Noise never compresses: every block goes lossless and is flagged.
	fillAndFragment(t, s, "normal", 12)
	if st := s.Stats(); st.FlaggedBlocks == 0 {
		t.Fatalf("setup: no flagged blocks (%+v)", st)
	}

	before := snapCounters()
	var moved int
	for {
		res, did, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
		moved += res.FramesMoved
	}
	d := snapCounters().since(before)
	if d.compactions == 0 || moved == 0 {
		t.Fatalf("no compaction happened (delta %+v, moved %d)", d, moved)
	}
	if d.skipped == 0 {
		t.Errorf("flagged blocks moved without a recompress skip (delta %+v)", d)
	}
	if d.tried != 0 {
		t.Errorf("recompression tried %d flagged blocks, want 0", d.tried)
	}
}

// TestRecompressionRetriesAfterThresholdChange: reopening the store at a
// different t1 re-arms the retry, and smooth data written lossless under
// an impossibly tight threshold converts to AVR under the default one.
func TestRecompressionRetriesAfterThresholdChange(t *testing.T) {
	dir := t.TempDir()
	// Tight threshold: even smooth data cannot meet t1=1e-7, so blocks
	// land lossless and flagged at 1e-7.
	s := openTest(t, Config{Dir: dir, T1: 1e-7, SegmentTargetBytes: 64 << 10})
	want := make([][]float32, 6)
	for i := range want {
		want[i] = genF32(t, "heat", BlockValues, uint64(i)+1)
		if _, err := s.Put32(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.FlaggedBlocks == 0 {
		t.Fatalf("setup: tight threshold produced no lossless blocks (%+v)", st)
	}
	// Fragment so compaction has a victim: overwrite half the keys.
	for i := 0; i < 3; i++ {
		want[i] = genF32(t, "heat", BlockValues, uint64(i)+100)
		if _, err := s.Put32(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at the default threshold: flags (rebuilt at t1=1e-7) no
	// longer match, so compaction retries — and heat data compresses
	// easily at 1/32.
	r := openTest(t, Config{Dir: dir, SegmentTargetBytes: 64 << 10})
	before := snapCounters()
	compactAll(t, r)
	d := snapCounters().since(before)
	if d.tried == 0 || d.won == 0 {
		t.Fatalf("threshold change did not re-arm recompression (delta %+v)", d)
	}
	// Converted blocks now serve values at the *new* threshold.
	for i := range want {
		got, err := get32(r, key(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if !withinT1(float64(got[j]), float64(want[i][j]), r.T1()) {
				t.Fatalf("key %d value %d beyond t1 after recompression", i, j)
			}
		}
	}
}

// TestPutSkipsFlaggedBlocks pins the write-path skip: a re-put of a
// flagged block at the same threshold goes straight to lossless.
func TestPutSkipsFlaggedBlocks(t *testing.T) {
	s := openTest(t, Config{})
	vals := genF32(t, "normal", BlockValues, 1)
	if _, err := s.Put32("k", vals); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.FlaggedBlocks == 0 {
		t.Fatalf("setup: noise block not flagged")
	}
	before := snapCounters()
	res, err := s.Put32("k", genF32(t, "normal", BlockValues, 2))
	if err != nil {
		t.Fatal(err)
	}
	d := snapCounters().since(before)
	if d.skips == 0 {
		t.Errorf("re-put of flagged block did not skip compression (delta %+v)", d)
	}
	if res.LosslessBlocks != res.Blocks {
		t.Errorf("skipped block not stored lossless: %+v", res)
	}
	// The skipped block is still exact.
	got, err := get32(s, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != BlockValues {
		t.Fatalf("got %d values", len(got))
	}
}

func TestBackgroundCompactor(t *testing.T) {
	s := openTest(t, Config{
		SegmentTargetBytes: 64 << 10,
		CompactEvery:       5 * time.Millisecond,
	})
	fillAndFragment(t, s, "normal", 12)
	// The verdict is the reading that ended the wait: a pass still in
	// flight raises the debt for a moment (its victim's frames are dead
	// once moved, and the file stays until the pass removes it), so a
	// second reading could land mid-pass.
	debt := s.Stats().CompactionDebt
	for deadline := time.Now().Add(5 * time.Second); debt >= 0.3 && time.Now().Before(deadline); debt = s.Stats().CompactionDebt {
		time.Sleep(10 * time.Millisecond)
	}
	if debt >= 0.3 {
		t.Fatalf("background worker left compaction debt %.3f", debt)
	}
	// Store stays fully usable during/after background compaction.
	if _, err := get32(s, "churn"); err != nil && !errors.Is(err, ErrIncomplete) {
		t.Fatal(err)
	}
}

// TestCompactionPreservesTombstones: a deleted key must stay deleted
// after its tombstone's segment is compacted and the store reopened.
func TestCompactionPreservesTombstones(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, SegmentTargetBytes: 64 << 10})
	if _, err := s.Put32("doomed", genF32(t, "normal", BlockValues, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	// Push more data so the tombstone's segment seals and fragments.
	fillAndFragment(t, s, "normal", 10)
	compactAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, Config{Dir: dir})
	if _, err := get32(r, "doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected after compaction+reopen: %v", err)
	}
}

func key(i int) string { return string(rune('a' + i)) }

// TestCompactionDrainsRecoveredActive: a reopened store adopts the
// newest recovered segment as active; if that segment carries most of
// the store's dead bytes, offline compaction must still converge to
// zero debt by sealing it (regression test for compaction stalling at
// high debt after a reopen).
func TestCompactionDrainsRecoveredActive(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, SegmentTargetBytes: 1 << 20})
	vals := genF32(t, "heat", BlockValues, 1)
	for i := 0; i < 40; i++ {
		if _, err := s.Put32("hot", vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, Config{Dir: dir, SegmentTargetBytes: 1 << 20})
	if debt := r.Stats().CompactionDebt; debt < 0.5 {
		t.Fatalf("setup: reopened store not fragmented (debt %.3f)", debt)
	}
	compactAll(t, r)
	st := r.Stats()
	if st.DeadBytes != 0 {
		t.Fatalf("compaction left %d dead bytes (debt %.3f)", st.DeadBytes, st.CompactionDebt)
	}
	got, err := get32(r, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != BlockValues {
		t.Fatalf("got %d values after drain", len(got))
	}
}

// compactAll runs passes until none finds a victim and returns their sum.
func compactAll(t *testing.T, s *Store) CompactResult {
	t.Helper()
	var sum CompactResult
	for {
		res, did, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			return sum
		}
		sum.FramesMoved += res.FramesMoved
		sum.BytesMoved += res.BytesMoved
		sum.BytesReclaimed += res.BytesReclaimed
		sum.RecompressTried += res.RecompressTried
	}
}

// asF64 widens either side of v.
func asF64(v vec.Vec) []float64 {
	if v.Width == 64 {
		return v.F64
	}
	out := make([]float64, len(v.F32))
	for i, x := range v.F32 {
		out[i] = float64(x)
	}
	return out
}

// TestCompactionKeepsEncodedT1: the t1 a block reports is the one its
// bytes were encoded at, whatever the store runs at when compaction moves
// it. Blocks written at 1/8 and moved after a reopen at 1/1024 still say
// 1/8, every query bound over them still covers the ground truth, and
// reads are bit-identical to before the pass. (A move that stamped the
// store's current t1 on the frame would shrink the bounds a hundredfold
// under answers that have not moved.)
func TestCompactionKeepsEncodedT1(t *testing.T) {
	const wrote, reopened = 1.0 / 8, 1.0 / 1024
	for _, width := range []int{32, 64} {
		t.Run(fmt.Sprintf("fp%d", width), func(t *testing.T) {
			gen := func(seed uint64) vec.Vec {
				if width == 64 {
					return vec.Of64(genF64(t, "heat", 2*BlockValues, seed))
				}
				return vec.Of32(genF32(t, "heat", 2*BlockValues, seed))
			}
			dir := t.TempDir()
			s := openTest(t, Config{Dir: dir, T1: wrote, SegmentTargetBytes: 64 << 10})
			truth := make(map[string][]float64)
			put := func(i int, seed uint64) {
				v := gen(seed)
				if _, err := s.PutVec(key(i), v, nil); err != nil {
					t.Fatal(err)
				}
				truth[key(i)] = asF64(v)
			}
			for i := 0; i < 6; i++ {
				put(i, uint64(i)+1)
			}
			for i := 0; i < 3; i++ { // fragment: overwrite half
				put(i, uint64(i)+100)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			r := openTest(t, Config{Dir: dir, T1: reopened, SegmentTargetBytes: 64 << 10})
			before := make(map[string][]byte)
			homes := make(map[string][]BlockInfo)
			for k := range truth {
				v, _, err := r.GetVec(vec.Vec{}, k, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				before[k] = v.AppendLE(nil)
				if homes[k], err = r.BlockInfos(k); err != nil {
					t.Fatal(err)
				}
			}
			if sum := compactAll(t, r); sum.FramesMoved == 0 {
				t.Fatal("setup: compaction moved nothing")
			}

			movedAVR := 0
			for k, want := range truth {
				infos, err := r.BlockInfos(k)
				if err != nil {
					t.Fatal(err)
				}
				for i, bi := range infos {
					if bi.Lossless {
						continue
					}
					if bi.T1 != wrote {
						t.Errorf("key %s block %d: reports t1 %g, was encoded at %g", k, i, bi.T1, wrote)
					}
					if bi.Segment != homes[k][i].Segment {
						movedAVR++
					}
				}
				v, _, err := r.GetVec(vec.Vec{}, k, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(v.AppendLE(nil), before[k]) {
					t.Errorf("key %s: Get changed across the pass", k)
				}

				var sum, lo, hi float64
				lo, hi = math.Inf(1), math.Inf(-1)
				for _, x := range want {
					sum += x
					lo, hi = min(lo, x), max(hi, x)
				}
				mean := sum / float64(len(want))
				agg, err := r.QueryAggregateTraced(k, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(agg.Mean - mean); d > agg.MeanErrorBound {
					t.Errorf("key %s: mean %g is %g from the truth %g, mean_error_bound says %g",
						k, agg.Mean, d, mean, agg.MeanErrorBound)
				}
				flo, fhi := lo+(hi-lo)/4, hi-(hi-lo)/4
				var inside int64
				for _, x := range want {
					if x >= flo && x <= fhi {
						inside++
					}
				}
				fil, err := r.QueryFilterTraced(k, flo, fhi, nil)
				if err != nil {
					t.Fatal(err)
				}
				if inside < fil.MatchesMin || inside > fil.MatchesMax {
					t.Errorf("key %s: %d values in [%g, %g], filter brackets [%d, %d]",
						k, inside, flo, fhi, fil.MatchesMin, fil.MatchesMax)
				}
			}
			if movedAVR == 0 {
				t.Fatal("setup: no AVR block was moved")
			}
		})
	}
}

// homedFrame is one live frame as the index sees it: its home, and the
// bytes there.
type homedFrame struct {
	seg    uint32
	off, n int64
	raw    []byte
}

// liveFrames reads every live frame of s, blocks and tombstones, at its
// ref.
func liveFrames(t *testing.T, s *Store) map[string]homedFrame {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]homedFrame)
	add := func(name string, seg uint32, off, n int64) {
		raw := make([]byte, n)
		if _, err := s.segs[seg].f.ReadAt(raw, off); err != nil {
			t.Fatalf("%s at segment %d offset %d: %v", name, seg, off, err)
		}
		out[name] = homedFrame{seg, off, n, raw}
	}
	for k, e := range s.index {
		for i, ref := range e.refs {
			if ref.seg != 0 {
				add(fmt.Sprintf("%s/%d", k, i), ref.seg, ref.off, ref.frameLen)
			}
		}
	}
	for k, tr := range s.tombs {
		add(k+"/tombstone", tr.seg, tr.off, tr.frameLen)
	}
	return out
}

// fragmentMixed leaves sealed segments that mix dead frames with live ones
// of every kind a pass moves as it is: AVR blocks, lossless blocks flagged
// at the store's t1, a tombstone.
func fragmentMixed(t *testing.T, s *Store) {
	t.Helper()
	if _, err := s.Put32("doomed", genF32(t, "heat", BlockValues, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for r := 0; r < 24; r += 1 + pass { // the second time round, every other key
			if _, err := s.Put32(fmt.Sprintf("smooth-%d", r), genF32(t, "heat", 2*BlockValues, uint64(r)+50)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Put64(fmt.Sprintf("wide-%d", r), genF64(t, "wave", BlockValues+100, uint64(r)+80)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fillAndFragment(t, s, "normal", 12)
}

// TestCompactionMovesFramesVerbatim: a frame a pass does not convert is
// at its new ref the bytes it was at its old one — seq, t1 and CRC
// included, so nothing a frame says about itself can change in a move.
func TestCompactionMovesFramesVerbatim(t *testing.T) {
	s := openTest(t, Config{SegmentTargetBytes: 64 << 10})
	fragmentMixed(t, s)
	before := liveFrames(t, s)
	if sum := compactAll(t, s); sum.FramesMoved == 0 || sum.RecompressTried != 0 {
		t.Fatalf("setup: %d frames moved, %d converted", sum.FramesMoved, sum.RecompressTried)
	}
	after := liveFrames(t, s)
	if len(after) != len(before) {
		t.Fatalf("%d live frames after the passes, %d before", len(after), len(before))
	}
	moved := map[string]int{}
	for name, was := range before {
		is, ok := after[name]
		if !ok {
			t.Fatalf("%s: lost", name)
		}
		if !bytes.Equal(is.raw, was.raw) {
			t.Errorf("%s: moved from segment %d to %d and changed on the way", name, was.seg, is.seg)
		}
		if is.seg != was.seg || is.off != was.off {
			switch kind := was.raw[frameHeaderLen]; {
			case kind == recordTombstone:
				moved["tombstone"]++
			case strings.HasPrefix(name, "keep-"):
				moved["lossless"]++
			default:
				moved["avr"]++
			}
		}
	}
	if moved["tombstone"] == 0 || moved["lossless"] == 0 || moved["avr"] == 0 {
		t.Fatalf("setup: moved %v, want every kind", moved)
	}
}
