package store

import (
	"errors"
	"math"
	"os"
	"sort"
	"testing"

	"avr/internal/vec"
	"avr/internal/workloads"
)

// withinT1 checks the codec's per-value contract: relative error at
// most t1 (outliers and raw blocks are exact, so the bound holds for
// every value). The tiny slack absorbs float64→float32 rounding in the
// comparison itself, not in the codec.
func withinT1(got, want, t1 float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= t1*math.Abs(want)*(1+1e-9)+1e-300
}

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func genF32(t *testing.T, dist string, n int, seed uint64) []float32 {
	t.Helper()
	vals, err := workloads.GenFloat32(dist, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func genF64(t *testing.T, dist string, n int, seed uint64) []float64 {
	t.Helper()
	vals, err := workloads.GenFloat64(dist, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// get32 and get64 read key from disk through GetVec, demanding the width.
func get32(s *Store, key string) ([]float32, error) {
	v, _, err := s.GetVec(vec.Of32(nil), key, false, nil)
	return v.F32, err
}

func get64(s *Store, key string) ([]float64, error) {
	v, _, err := s.GetVec(vec.Of64(nil), key, false, nil)
	return v.F64, err
}

func TestPutGetRoundTrip32(t *testing.T) {
	s := openTest(t, Config{})
	vals := genF32(t, "heat", 3*BlockValues+123, 1)
	res, err := s.Put32("k", vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 4 || res.Values != len(vals) {
		t.Fatalf("PutResult %+v, want 4 blocks %d values", res, len(vals))
	}
	if res.Ratio < 2 {
		t.Errorf("heat data achieved ratio %.2f, want compressible (≥2)", res.Ratio)
	}
	got, err := get32(s, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	for i := range got {
		if !withinT1(float64(got[i]), float64(vals[i]), s.T1()) {
			t.Fatalf("value %d: got %g want %g beyond t1=%g", i, got[i], vals[i], s.T1())
		}
	}
}

func TestPutGetRoundTrip64(t *testing.T) {
	s := openTest(t, Config{})
	vals := genF64(t, "wave", 2*BlockValues+7, 2)
	if _, err := s.Put64("k64", vals); err != nil {
		t.Fatal(err)
	}
	got, err := get64(s, "k64")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	for i := range got {
		if !withinT1(got[i], vals[i], s.T1()) {
			t.Fatalf("value %d: got %g want %g beyond t1=%g", i, got[i], vals[i], s.T1())
		}
	}
}

func TestGetWidthMismatch(t *testing.T) {
	s := openTest(t, Config{})
	if _, err := s.Put32("k", genF32(t, "heat", 100, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := get64(s, "k"); !errors.Is(err, ErrWidth) {
		t.Fatalf("Get64 of fp32 key: err = %v, want ErrWidth", err)
	}
	if _, err := get32(s, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get32 missing key: err = %v, want ErrNotFound", err)
	}
}

func TestLosslessFallbackIsExact(t *testing.T) {
	// Noise misses the ratio floor in every block, so every block goes
	// through the lossless fallback, which must be bit-exact.
	s := openTest(t, Config{})
	vals := genF32(t, "normal", BlockValues+11, 3)
	res, err := s.Put32("noise", vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.LosslessBlocks != res.Blocks {
		t.Fatalf("%d of %d blocks lossless, want all", res.LosslessBlocks, res.Blocks)
	}
	got, err := get32(s, "noise")
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("lossless block value %d not bit-exact: got %x want %x",
				i, math.Float32bits(got[i]), math.Float32bits(vals[i]))
		}
	}
	infos, err := s.BlockInfos("noise")
	if err != nil {
		t.Fatal(err)
	}
	for _, bi := range infos {
		if !bi.Lossless {
			t.Fatalf("block %d not marked lossless", bi.Index)
		}
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	s := openTest(t, Config{})
	v1 := genF32(t, "heat", 2*BlockValues, 1)
	v2 := genF32(t, "wave", BlockValues/2, 2)
	if _, err := s.Put32("k", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put32("k", v2); err != nil {
		t.Fatal(err)
	}
	got, err := get32(s, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(v2) {
		t.Fatalf("after overwrite got %d values, want %d", len(got), len(v2))
	}
	st := s.Stats()
	if st.DeadBytes == 0 {
		t.Error("overwrite left no dead bytes")
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := get32(s, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: err = %v, want ErrNotFound", err)
	}
	if err := s.Delete("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete: err = %v, want ErrNotFound", err)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	want := map[string][]float32{}
	s := openTest(t, Config{Dir: dir})
	for i, dist := range []string{"heat", "ramp", "wave"} {
		vals := genF32(t, dist, BlockValues+i*100, uint64(i)+1)
		key := "k-" + dist
		if _, err := s.Put32(key, vals); err != nil {
			t.Fatal(err)
		}
		got, err := get32(s, key)
		if err != nil {
			t.Fatal(err)
		}
		want[key] = got // reopened store must reproduce identical bytes
	}
	if _, err := s.Put32("gone", genF32(t, "heat", 64, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	statsBefore := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, Config{Dir: dir})
	keys := r.Keys()
	sort.Strings(keys)
	if len(keys) != len(want) {
		t.Fatalf("reopened store has keys %v, want %d keys", keys, len(want))
	}
	for key, vals := range want {
		got, err := get32(r, key)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				t.Fatalf("%s value %d changed across reopen", key, i)
			}
		}
	}
	if _, err := get32(r, "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected after reopen: err = %v", err)
	}
	statsAfter := r.Stats()
	if statsAfter.RawBytes != statsBefore.RawBytes {
		t.Errorf("raw bytes %d after reopen, want %d", statsAfter.RawBytes, statsBefore.RawBytes)
	}
	if statsAfter.LiveBytes != statsBefore.LiveBytes {
		t.Errorf("live bytes %d after reopen, want %d", statsAfter.LiveBytes, statsBefore.LiveBytes)
	}
}

func TestSegmentRollAndStats(t *testing.T) {
	// The roll is decided once per put: a put lands whole in one segment,
	// however far it overshoots a tiny target, and the next put rolls.
	s := openTest(t, Config{SegmentTargetBytes: 8 << 10})
	vals := genF32(t, "normal", 4*BlockValues, 4) // incompressible → big frames
	for _, k := range []string{"k0", "k1", "k2"} {
		if _, err := s.Put32(k, vals); err != nil {
			t.Fatal(err)
		}
		infos, err := s.BlockInfos(k)
		if err != nil || len(infos) != 4 {
			t.Fatalf("%s: %d block infos (%v), want 4", k, len(infos), err)
		}
		for _, bi := range infos {
			if bi.Segment != infos[0].Segment {
				t.Fatalf("%s: block %d in segment %d, block 0 in %d", k, bi.Index, bi.Segment, infos[0].Segment)
			}
		}
	}
	if st := s.Stats(); st.Segments != 3 {
		t.Fatalf("3 puts over the target each: %d segments, want 3", st.Segments)
	}
	got, err := get32(s, "k0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
}

func TestStatsAccounting(t *testing.T) {
	s := openTest(t, Config{})
	vals := genF32(t, "heat", 2*BlockValues, 1)
	if _, err := s.Put32("a", vals); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Keys != 1 || st.Blocks != 2 {
		t.Fatalf("stats %+v, want 1 key 2 blocks", st)
	}
	if st.RawBytes != int64(4*len(vals)) {
		t.Errorf("raw bytes %d, want %d", st.RawBytes, 4*len(vals))
	}
	if st.AchievedRatio < 2 {
		t.Errorf("achieved ratio %.2f for heat data, want ≥2", st.AchievedRatio)
	}
	if st.CompactionDebt != 0 {
		t.Errorf("fresh store has compaction debt %.2f", st.CompactionDebt)
	}
}

// TestCrashRecoveryTornTail is the crash-safety acceptance test: a store
// whose tail segment is cut mid-frame (simulated crash during append)
// must reopen, recover every fully-written block, and serve values that
// still satisfy the t1 bound (exactly, for lossless blocks).
func TestCrashRecoveryTornTail(t *testing.T) {
	fs := newMemFS(1)
	s := openTest(t, Config{Dir: "d", fs: fs})
	stable := genF32(t, "heat", 2*BlockValues, 1)
	if _, err := s.Put32("stable", stable); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: the process dies 37 bytes short of the end of a put.
	victim := genF32(t, "wave", 4*BlockValues, 2)
	fs.hook = cutWrite(func(b []byte) int { return len(b) - 37 })
	if _, err := s.Put32("victim", victim); !errors.Is(err, errCut) {
		t.Fatalf("put on a dying disk: %v", err)
	}

	r := openTest(t, Config{Dir: "d", fs: fs.crash(processKill, 1)})
	// The untouched key is fully intact.
	got, err := get32(r, "stable")
	if err != nil {
		t.Fatalf("stable key after crash: %v", err)
	}
	for i := range got {
		if !withinT1(float64(got[i]), float64(stable[i]), r.T1()) {
			t.Fatalf("stable value %d beyond t1 after recovery", i)
		}
	}
	// The victim lost its last block (37 bytes cut the final frame) but
	// every fully-written block must be back, bounded by t1.
	v, err := get32(r, "victim")
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("victim Get err = %v, want ErrIncomplete", err)
	}
	if len(v) == 0 || len(v)%BlockValues != 0 || len(v) >= len(victim) {
		t.Fatalf("recovered %d values, want a non-empty proper prefix of whole blocks (put %d)",
			len(v), len(victim))
	}
	for i := range v {
		if !withinT1(float64(v[i]), float64(victim[i]), r.T1()) {
			t.Fatalf("recovered value %d beyond t1", i)
		}
	}

	// Writes after recovery must work, and the re-put heals the key.
	if _, err := r.Put32("victim", victim); err != nil {
		t.Fatal(err)
	}
	if v, err = get32(r, "victim"); err != nil || len(v) != len(victim) {
		t.Fatalf("re-put after recovery: %d values, err %v", len(v), err)
	}
}

// TestCrashRecoveryBitFlip pins the middle-segment integrity contract:
// damage that is not a torn tail fails the open loudly instead of
// silently dropping data.
func TestCrashRecoveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, SegmentTargetBytes: 4 << 10})
	for i := 0; i < 4; i++ {
		key := string(rune('a' + i))
		if _, err := s.Put32(key, genF32(t, "normal", BlockValues, uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := segIDs(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 {
		t.Fatalf("want ≥2 segments, got %d", len(ids))
	}
	first := segPath(dir, ids[0])
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("open succeeded over a corrupt non-tail segment")
	}
}

func TestEmptyAndBadKeys(t *testing.T) {
	s := openTest(t, Config{})
	if _, err := s.Put32("", []float32{1}); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := s.Put32("k", nil); err == nil {
		t.Error("empty vector accepted")
	}
	long := make([]byte, maxKeyLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := s.Put32(string(long), []float32{1}); err == nil {
		t.Error("oversized key accepted")
	}
}

func TestClosedStore(t *testing.T) {
	s := openTest(t, Config{})
	if _, err := s.Put32("k", genF32(t, "heat", 64, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put32("k", []float32{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close: %v, want ErrClosed", err)
	}
	if _, _, _, err := s.GetTraced("k", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}
