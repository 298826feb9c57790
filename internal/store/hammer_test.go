package store

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"avr/internal/vec"
)

// TestStoreConcurrentHammer drives Put/Get/Delete/CompactOnce from
// concurrent goroutines, two of them compacting — a victim has one
// handle, the read path's, so passes take turns (compactMu). Run under
// the race detector in CI, it pins the synchronisation of the puts (codec
// borrowing, the encode loop's flag-table reads) and the compactor's
// against everything else, and ends with an audit of what the storm
// left: every key holds its last acked put, the index and the segments
// agree on what is live, and the directory holds the segments the store
// knows and no others.
func TestStoreConcurrentHammer(t *testing.T) {
	s := openTest(t, Config{
		SegmentTargetBytes: 128 << 10,
		minDeadFraction:    0.05,
	})
	// Each put of a key alternates between two vectors, so a read that
	// came back with a superseded value would show.
	vals := [2][]float32{genF32(t, "heat", 3*BlockValues+17, 7), genF32(t, "heat", 3*BlockValues+17, 9)}
	vals64 := [2][]float64{genF64(t, "wave", BlockValues+9, 8), genF64(t, "wave", BlockValues+9, 10)}
	const iters = 60
	var wg sync.WaitGroup
	var last [2]map[string]int // per writer: key → which vector its last acked put held
	for w := 0; w < 2; w++ {
		last[w] = make(map[string]int)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key, wide, which := fmt.Sprintf("key-%d-%d", w, i%5), fmt.Sprintf("wide-%d", w), (i/5)%2
				if _, err := s.Put32(key, vals[which]); err != nil {
					t.Error(err)
					return
				}
				last[w][key] = which
				if _, err := s.Put64(wide, vals64[i%2]); err != nil {
					t.Error(err)
					return
				}
				last[w][wide] = i % 2
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if got, err := get32(s, fmt.Sprintf("key-0-%d", i%5)); err == nil {
				if len(got) != len(vals[0]) {
					t.Errorf("get returned %d values, want %d", len(got), len(vals[0]))
					return
				}
			} else if err != ErrNotFound {
				t.Error(err)
				return
			}
		}
	}()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters/2; i++ {
				if c == 0 {
					if err := s.Delete(fmt.Sprintf("key-1-%d", i%5)); err != nil && err != ErrNotFound {
						t.Error(err)
						return
					}
				}
				if _, _, err := s.CompactOnce(); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// The store must still round-trip within threshold after the storm.
	if _, err := s.Put32("final", vals[0]); err != nil {
		t.Fatal(err)
	}
	last[0]["final"] = 0

	// Every key holds its last acked put, within t1 — or, a key of the
	// writer the deletes raced, nothing.
	for w := range last {
		for key, which := range last[w] {
			v, _, err := s.GetVec(vec.Vec{}, key, false, nil)
			if err == ErrNotFound && w == 1 && strings.HasPrefix(key, "key-") {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			want := asF64(vec.Of32(vals[which]))
			if v.Width == 64 {
				want = vals64[which]
			}
			got := asF64(v)
			if len(got) != len(want) {
				t.Fatalf("%s: %d values, want %d", key, len(got), len(want))
			}
			for i := range got {
				if !withinT1(got[i], want[i], s.T1()) {
					t.Fatalf("%s value %d: got %g, last acked put held %g", key, i, got[i], want[i])
				}
			}
		}
	}
	// The index and the segments agree on what is live.
	var live int64
	for _, key := range s.Keys() {
		infos, err := s.BlockInfos(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, bi := range infos {
			live += bi.Bytes
		}
	}
	for _, tr := range s.tombs {
		live += tr.frameLen
	}
	if st := s.Stats(); live != st.LiveBytes {
		t.Errorf("blocks and tombstones hold %d live bytes, the segments say %d", live, st.LiveBytes)
	}
	// The directory holds the segments the store knows, and no others.
	ids, err := segIDs(osFS{}, s.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(s.segs) {
		t.Errorf("%d segment files on disk, the store knows %d", len(ids), len(s.segs))
	}
	for _, id := range ids {
		if s.segs[id] == nil {
			t.Errorf("segment %d is on disk and the store does not know it", id)
		}
	}
}
