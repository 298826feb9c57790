package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"avr/internal/workloads"
)

// queryGroundTruth is the exact answer set a query approximates,
// computed from the original values exactly the way the executor
// accumulates (float64, index order), so the reported bounds are the
// only slack between them.
type queryGroundTruth struct {
	count    int64
	sum      float64
	min, max float64
	points   []float64 // padded 16→1 group means
}

func groundTruth(vals []float64) queryGroundTruth {
	gt := queryGroundTruth{
		count: int64(len(vals)),
		min:   math.Inf(1),
		max:   math.Inf(-1),
	}
	for _, v := range vals {
		gt.sum += v
		if v < gt.min {
			gt.min = v
		}
		if v > gt.max {
			gt.max = v
		}
	}
	n := len(vals)
	for g := 0; g*16 < n; g++ {
		var s float64
		for j := g * 16; j < g*16+16; j++ {
			if j < n {
				s += vals[j]
			} else {
				s += vals[n-1] // codec padding convention
			}
		}
		gt.points = append(gt.points, s/16)
	}
	return gt
}

func exactMatches(vals []float64, lo, hi float64) int64 {
	var n int64
	for _, v := range vals {
		if lo <= v && v <= hi {
			n++
		}
	}
	return n
}

// checkAggregate asserts every aggregate lands within its reported
// bound of the exact answer.
func checkAggregate(t *testing.T, key string, res AggregateResult, gt queryGroundTruth) {
	t.Helper()
	tol := func(b float64) float64 { return b*(1+1e-9) + 1e-300 }
	if res.Count != gt.count {
		t.Fatalf("%s: count %d, want %d", key, res.Count, gt.count)
	}
	if d := math.Abs(res.Sum - gt.sum); d > tol(res.ErrorBound) {
		t.Fatalf("%s: |sum %g - exact %g| = %g beyond bound %g",
			key, res.Sum, gt.sum, d, res.ErrorBound)
	}
	mean := gt.sum / float64(gt.count)
	if d := math.Abs(res.Mean - mean); d > tol(res.MeanErrorBound) {
		t.Fatalf("%s: |mean %g - exact %g| = %g beyond bound %g",
			key, res.Mean, mean, d, res.MeanErrorBound)
	}
	slack := 1e-9*math.Abs(gt.min) + 1e-300
	if res.Min > gt.min+slack || gt.min > res.Min+res.MinErrorBound+slack {
		t.Fatalf("%s: exact min %g outside [%g, %g+%g]",
			key, gt.min, res.Min, res.Min, res.MinErrorBound)
	}
	slack = 1e-9*math.Abs(gt.max) + 1e-300
	if res.Max < gt.max-slack || gt.max < res.Max-res.MaxErrorBound-slack {
		t.Fatalf("%s: exact max %g outside [%g-%g, %g]",
			key, gt.max, res.Max, res.MaxErrorBound, res.Max)
	}
	if res.BytesTotal != gt.count*int64(res.Width/8) {
		t.Fatalf("%s: bytes_total %d, want %d", key, res.BytesTotal, gt.count*int64(res.Width/8))
	}
	if res.BytesTouched <= 0 {
		t.Fatalf("%s: bytes_touched %d", key, res.BytesTouched)
	}
	if !res.Complete {
		t.Fatalf("%s: aggregate reported incomplete", key)
	}
}

// checkFilter asserts the guaranteed bracket holds (superset on the
// high side, never over-claims on the low side) and the point estimate
// is within its reported bound.
func checkFilter(t *testing.T, key string, res FilterResult, exact int64) {
	t.Helper()
	if res.MatchesMin > exact {
		t.Fatalf("%s [%g,%g]: matches_min %d over-claims exact %d",
			key, res.Lo, res.Hi, res.MatchesMin, exact)
	}
	if res.MatchesMax < exact {
		t.Fatalf("%s [%g,%g]: matches_max %d misses exact %d",
			key, res.Lo, res.Hi, res.MatchesMax, exact)
	}
	if d := res.Matches - exact; d > res.ErrorBound || d < -res.ErrorBound {
		t.Fatalf("%s [%g,%g]: estimate %d vs exact %d beyond error bound %d",
			key, res.Lo, res.Hi, res.Matches, exact, res.ErrorBound)
	}
}

func checkDownsample(t *testing.T, key string, res DownsampleResult, gt queryGroundTruth) {
	t.Helper()
	if res.Factor != 16 {
		t.Fatalf("%s: factor %d", key, res.Factor)
	}
	if len(res.Points) != len(gt.points) || len(res.Bounds) != len(res.Points) {
		t.Fatalf("%s: %d points / %d bounds, want %d",
			key, len(res.Points), len(res.Bounds), len(gt.points))
	}
	for g := range res.Points {
		if d := math.Abs(res.Points[g] - gt.points[g]); d > res.Bounds[g]*(1+1e-9)+1e-300 {
			t.Fatalf("%s: point %d: |%g - exact %g| = %g beyond bound %g",
				key, g, res.Points[g], gt.points[g], d, res.Bounds[g])
		}
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
	gt := groundTruth(vals)

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

	agg, err := s.QueryAggregate(key)
	if err != nil {
		t.Fatal(err)
	}
	checkAggregate(t, key, agg, gt)
	checkTouched("aggregate", agg.QueryStats)
	if agg.BlocksAVR == 0 && agg.BlocksRaw == 0 {
		// Pure lossless vector: the answer must be exact up
		// to accumulation slack.
		if d := math.Abs(agg.Sum - gt.sum); d > 1e-9*math.Abs(gt.sum)+1e-300 {
			t.Fatalf("%s: lossless sum %g vs exact %g", key, agg.Sum, gt.sum)
		}
	}

	bands := queryBands(gt)
	for _, band := range bands {
		if !(band[0] <= band[1]) {
			continue
		}
		fr, err := s.QueryFilter(key, band[0], band[1])
		if err != nil {
			t.Fatal(err)
		}
		checkFilter(t, key, fr, exactMatches(vals, band[0], band[1]))
		checkTouched("filter", fr.QueryStats)
	}

	ds, err := s.QueryDownsample(key)
	if err != nil {
		t.Fatal(err)
	}
	checkDownsample(t, key, ds, gt)
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
		res, err := s.QueryAggregate(key)
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
	if _, err := s.QueryAggregate("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aggregate of absent key: %v", err)
	}
	if _, err := s.QueryFilter("absent", 1, 0); err == nil {
		t.Fatal("inverted filter range accepted")
	}
	if _, err := s.Put32("k", genF32(t, "ramp", 100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryAggregate("k"); !errors.Is(err, ErrClosed) {
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
	if _, err := s.Put32("torn", genF32(t, "heat", 3*BlockValues, 9)); !errors.Is(err, errCut) {
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
	got, err := s.Get32("torn")
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Get of torn vector: err %v", err)
	}
	if len(got) != BlockValues {
		t.Fatalf("recovered prefix of %d values, want %d", len(got), BlockValues)
	}
	agg, err := s.QueryAggregate("torn")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Complete {
		t.Fatal("query over torn vector claims completeness")
	}
	if agg.Count != BlockValues {
		t.Fatalf("query count %d over torn vector, want %d", agg.Count, BlockValues)
	}
	vals64 := make([]float64, BlockValues)
	for i, v := range got {
		vals64[i] = float64(v)
	}
	checkFilterIncomplete := groundTruth(vals64)
	tol := agg.ErrorBound*(1+1e-9) + 1e-300
	if d := math.Abs(agg.Sum - checkFilterIncomplete.sum); d > tol {
		t.Fatalf("torn prefix sum %g vs exact %g beyond bound", agg.Sum, checkFilterIncomplete.sum)
	}
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
