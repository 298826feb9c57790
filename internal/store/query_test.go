package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"avr/internal/vec"
	"avr/internal/workloads"
)

// holds fails the test with a checker's verdict on one of key's answers.
func holds(t *testing.T, key string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
}

// TestPropertyQueryAllWorkloads is the compressed-domain counterpart of
// TestPropertyRoundTripAllWorkloads: for every generator × width ×
// size × threshold, every aggregate lies within its reported error
// bound of the exact answer, range filters bracket the exact match
// count without ever missing, and the downsampled series is within its
// per-point bounds — including vectors that fall back to lossless
// blocks, which must come out exact. Every answer is also held to the
// retained per-value walk over the same frames (diffAll). The sizes sit
// on both sides of a group, a record's padding and a store block; t1 =
// 0.6 is f = 1.5, where the interval ends stop being monotone and the
// min/max and filter paths fall back to classifying per value.
func TestPropertyQueryAllWorkloads(t *testing.T) {
	dists := workloads.Distributions()
	if len(dists) == 0 {
		t.Fatal("no workload distributions registered")
	}
	sizes := []int{1, 15, 16, 17, BlockValues - 1, BlockValues, BlockValues + 1, 2*BlockValues + 511}

	for _, dist := range dists {
		for _, width := range []int{32, 64} {
			t.Run(fmt.Sprintf("%s/fp%d", dist, width), func(t *testing.T) {
				for _, t1 := range []float64{1.0 / 1024, 1.0 / 32, 0.6} {
					s := openTest(t, Config{SegmentTargetBytes: 1 << 20, T1: t1})
					for si, n := range sizes {
						propertyQuery(t, s, dist, width, n, uint64(si)*1000+7)
					}
				}
			})
		}
	}
}

func propertyQuery(t *testing.T, s *Store, dist string, width, n int, seed uint64) {
	key := fmt.Sprintf("%s-%d@%g", dist, n, s.T1())
	vals := make([]float64, n)
	if width == 32 {
		w32, err := workloads.GenFloat32(dist, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put32(key, w32); err != nil {
			t.Fatal(err)
		}
		for i, v := range w32 {
			vals[i] = float64(v)
		}
	} else {
		w64, err := workloads.GenFloat64(dist, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put64(key, w64); err != nil {
			t.Fatal(err)
		}
		copy(vals, w64)
	}
	gt := NewTruth(vec.Of64(vals))

	// Every query reads the key's frames whole, whatever the op.
	infos, err := s.BlockInfos(key)
	if err != nil {
		t.Fatal(err)
	}
	var stored int64
	for _, bi := range infos {
		stored += bi.Bytes
	}
	checkTouched := func(op string, qs QueryStats) {
		t.Helper()
		if qs.BytesTouched != stored {
			t.Fatalf("%s: %s touched %d bytes, the key's frames hold %d", key, op, qs.BytesTouched, stored)
		}
	}

	agg, err := s.QueryAggregateTraced(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	holds(t, key, gt.Aggregate(agg))
	checkTouched("aggregate", agg.QueryStats)
	if agg.BlocksAVR == 0 && agg.BlocksRaw == 0 {
		// Pure lossless vector: the answer must be exact up
		// to accumulation slack.
		if d := math.Abs(agg.Sum - gt.Sum); d > 1e-9*math.Abs(gt.Sum)+1e-300 {
			t.Fatalf("%s: lossless sum %g vs exact %g", key, agg.Sum, gt.Sum)
		}
	}

	bands := queryBands(gt)
	for _, band := range bands {
		fr, err := s.QueryFilterTraced(key, band[0], band[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		holds(t, key, gt.Filter(fr))
		checkTouched("filter", fr.QueryStats)
	}

	ds, err := s.QueryDownsampleTraced(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	holds(t, key, gt.Downsample(ds))
	checkTouched("downsample", ds.QueryStats)

	diffAll(t, s, key, bands)
}

// TestQueryBytesTouched pins the headline traffic property: an
// aggregate over AVR-encoded (non-lossless, non-raw) blocks reads at
// most 1/8 of the covered raw bytes — near 1/16 when records are
// outlier-free, with the outlier bitmaps, the exact outliers and their
// cacheline padding costing the rest. Outlier-heavy data needs a
// matching t1 (heat at 1/8) to stay inside the budget; smooth data holds
// it at the default.
func TestQueryBytesTouched(t *testing.T) {
	for _, tc := range []struct {
		dist  string
		width int
		t1    float64
	}{
		{"ramp", 32, 0},
		{"wave", 64, 0},
		{"heat", 32, 1.0 / 8},
	} {
		s := openTest(t, Config{T1: tc.t1})
		key := fmt.Sprintf("%s%d", tc.dist, tc.width)
		n := 8 * BlockValues
		if tc.width == 32 {
			if _, err := s.Put32(key, genF32(t, tc.dist, n, 11)); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := s.Put64(key, genF64(t, tc.dist, n, 11)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.QueryAggregateTraced(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.BlocksLossless > 0 || res.BlocksRaw > 0 {
			t.Fatalf("%s: expected pure AVR encoding, got %d lossless / %d raw",
				key, res.BlocksLossless, res.BlocksRaw)
		}
		ratio := float64(res.BytesTouched) / float64(res.BytesTotal)
		if ratio > 1.0/8 {
			t.Fatalf("%s: touched %d of %d raw bytes (%.4f), budget 1/8",
				key, res.BytesTouched, res.BytesTotal, ratio)
		}
		t.Logf("%s: touched %d / %d bytes (%.4f)", key, res.BytesTouched, res.BytesTotal, ratio)
	}
}

// TestQueryErrors pins the error mapping of the query surface.
func TestQueryErrors(t *testing.T) {
	s := openTest(t, Config{})
	if _, err := s.QueryAggregateTraced("absent", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aggregate of absent key: %v", err)
	}
	if _, err := s.QueryFilterTraced("absent", 1, 0, nil); err == nil {
		t.Fatal("inverted filter range accepted")
	}
	if _, err := s.Put32("k", genF32(t, "ramp", 100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryAggregateTraced("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("aggregate after close: %v", err)
	}
}

// TestKeysSorted pins the Keys ordering contract: sorted, so
// Keys-driven output is stable run to run.
func TestKeysSorted(t *testing.T) {
	s := openTest(t, Config{})
	vals := genF32(t, "ramp", 32, 5)
	for _, k := range []string{"zeta", "alpha", "mid", "beta-2", "beta-1"} {
		if _, err := s.Put32(k, vals); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("Keys() not sorted: %q", keys)
	}
	if len(keys) != 5 {
		t.Fatalf("Keys() returned %d keys, want 5", len(keys))
	}
}

// TestTornTailHole pins hole semantics end to end: a torn multi-block
// put recovers as a prefix; BlockInfos stops at the hole, Get and the
// query executor report the prefix as incomplete, and Stats counts only
// the recovered blocks.
func TestTornTailHole(t *testing.T) {
	// A crash mid-append: of the put's three frames, written back to back,
	// block 0's lands whole and block 1's in part.
	fs := newMemFS(1)
	s := openTest(t, Config{Dir: "d", fs: fs})
	fs.hook = cutWrite(tearInFrame(1))
	vals := genF32(t, "heat", 3*BlockValues, 9)
	if _, err := s.Put32("torn", vals); !errors.Is(err, errCut) {
		t.Fatalf("put on a dying disk: %v", err)
	}

	s = openTest(t, Config{Dir: "d", fs: fs.crash(processKill, 1)})

	infos, err := s.BlockInfos("torn")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Index != 0 {
		t.Fatalf("recovered %d blocks (first index %v), want the block-0 prefix",
			len(infos), infos)
	}
	if st := s.Stats(); st.Blocks != 1 {
		t.Fatalf("Stats.Blocks %d after torn recovery, want 1", st.Blocks)
	}
	got, err := get32(s, "torn")
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Get of torn vector: err %v", err)
	}
	if len(got) != BlockValues {
		t.Fatalf("recovered prefix of %d values, want %d", len(got), BlockValues)
	}
	agg, err := s.QueryAggregateTraced("torn", nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Complete {
		t.Fatal("query over torn vector claims completeness")
	}
	// Apart from the flag, the answer is the recovered prefix's own.
	agg.Complete = true
	holds(t, "torn", NewTruth(vec.Of32(vals[:BlockValues])).Aggregate(agg))
}

// TestOpenRejectsSegmentZero pins the seg-0 reservation: segment ID 0
// is the blockRef hole marker, so a seg-00000000 file (never created by
// the store) must fail the open instead of being indexed.
func TestOpenRejectsSegmentZero(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 0), segmentHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("open accepted a reserved seg-00000000 file")
	}
}
