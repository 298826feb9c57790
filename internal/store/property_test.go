package store

import (
	"fmt"
	"math"
	"testing"

	"avr/internal/workloads"
)

// TestPropertyRoundTripAllWorkloads is the store-level error-bound
// property: for every workload generator the repo ships, at both value
// widths, a put→get round trip returns values within the store's t1
// for AVR-encoded blocks and bit-exact values for lossless-fallback
// blocks. Which blocks fell back is read from BlockInfos, so the test
// also cross-checks that the reported encoding matches observed error.
func TestPropertyRoundTripAllWorkloads(t *testing.T) {
	dists := workloads.Distributions()
	if len(dists) == 0 {
		t.Fatal("no workload distributions registered")
	}
	// Odd sizes: sub-block, exact block, block+tail, multi-block+tail.
	sizes := []int{17, BlockValues, BlockValues + 1, 3*BlockValues + 511}

	for _, dist := range dists {
		for _, width := range []int{32, 64} {
			t.Run(fmt.Sprintf("%s/fp%d", dist, width), func(t *testing.T) {
				s := openTest(t, Config{SegmentTargetBytes: 1 << 20})
				t1 := s.T1()
				for si, n := range sizes {
					key := fmt.Sprintf("%s-%d", dist, n)
					seed := uint64(si)*1000 + 7

					var want64 []float64
					var want32 []float32
					var err error
					if width == 32 {
						want32, err = workloads.GenFloat32(dist, n, seed)
					} else {
						want64, err = workloads.GenFloat64(dist, n, seed)
					}
					if err != nil {
						t.Fatal(err)
					}
					if width == 32 {
						_, err = s.Put32(key, want32)
					} else {
						_, err = s.Put64(key, want64)
					}
					if err != nil {
						t.Fatal(err)
					}

					infos, err := s.BlockInfos(key)
					if err != nil {
						t.Fatal(err)
					}
					lossless := make(map[int]bool)
					for _, bi := range infos {
						if bi.Lossless {
							lossless[bi.Index] = true
						}
					}

					check := func(i int, got, want float64, gotBits, wantBits uint64) {
						if lossless[i/BlockValues] {
							if gotBits != wantBits {
								t.Fatalf("%s[%d]: lossless block not bit-exact: got %x want %x",
									key, i, gotBits, wantBits)
							}
							return
						}
						if !withinT1(got, want, t1) {
							t.Fatalf("%s[%d]: AVR block beyond t1=%g: got %g want %g",
								key, i, t1, got, want)
						}
					}

					if width == 32 {
						got, err := get32(s, key)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != n {
							t.Fatalf("%s: got %d values, want %d", key, len(got), n)
						}
						for i := range got {
							check(i, float64(got[i]), float64(want32[i]),
								uint64(math.Float32bits(got[i])), uint64(math.Float32bits(want32[i])))
						}
					} else {
						got, err := get64(s, key)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != n {
							t.Fatalf("%s: got %d values, want %d", key, len(got), n)
						}
						for i := range got {
							check(i, got[i], want64[i],
								math.Float64bits(got[i]), math.Float64bits(want64[i]))
						}
					}
				}
			})
		}
	}
}

// TestPropertySurvivesReopen repeats the bound check after a close and
// recovery scan, for one representative workload per width: recovery
// must not change a single served bit.
func TestPropertySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir})
	const n = 2*BlockValues + 37
	w32, err := workloads.GenFloat32("mixed", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	w64, err := workloads.GenFloat64("ramp", n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put32("m32", w32); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put64("r64", w64); err != nil {
		t.Fatal(err)
	}
	before32, err := get32(s, "m32")
	if err != nil {
		t.Fatal(err)
	}
	before64, err := get64(s, "r64")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, Config{Dir: dir})
	after32, err := get32(r, "m32")
	if err != nil {
		t.Fatal(err)
	}
	after64, err := get64(r, "r64")
	if err != nil {
		t.Fatal(err)
	}
	for i := range before32 {
		if math.Float32bits(before32[i]) != math.Float32bits(after32[i]) {
			t.Fatalf("fp32 value %d changed across reopen", i)
		}
		if !withinT1(float64(after32[i]), float64(w32[i]), r.T1()) {
			t.Fatalf("fp32 value %d beyond t1 after reopen", i)
		}
	}
	for i := range before64 {
		if math.Float64bits(before64[i]) != math.Float64bits(after64[i]) {
			t.Fatalf("fp64 value %d changed across reopen", i)
		}
		if !withinT1(after64[i], w64[i], r.T1()) {
			t.Fatalf("fp64 value %d beyond t1 after reopen", i)
		}
	}
}
