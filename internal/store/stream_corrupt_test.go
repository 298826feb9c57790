package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"strings"
	"testing"

	"avr"
	"avr/internal/vec"
)

// TestStructuralDamageIsErrCorruptOnEveryReadPath plants frames whose
// CRC is valid but whose AVR stream is not, and requires the three
// consumers of the stream — Get, cache fill, each query op — to agree
// that the key is corrupt, and on which block. (Get used to surface the
// codec's bare error.) The last case is the opposite damage: a bit
// flipped under the open store in a record's zero padding, which no
// stream parser can see and only the frame CRC catches — every reader
// goes through readLocked, so every reader must refuse it.
func TestStructuralDamageIsErrCorruptOnEveryReadPath(t *testing.T) {
	const n = 300 // two fp32 records, three fp64 records
	spiky32 := make([]float32, n)
	spiky64 := make([]float64, n)
	for i := range spiky32 {
		v := 100 + math.Sin(float64(i)/30)
		if i%45 == 3 {
			v *= 1.5 // outliers: the first record carries a bitmap, and padding
		}
		spiky32[i], spiky64[i] = float32(v), v
	}
	s32, err := avr.NewCodec(0).Encode(spiky32)
	if err != nil {
		t.Fatal(err)
	}
	s64, err := avr.NewCodec(0).Encode64(spiky64)
	if err != nil {
		t.Fatal(err)
	}

	const rec0 = 8 // first record's flags byte
	for _, w := range []struct {
		width  uint8
		stream []byte
		bm0    int // where the first record's bitmap starts …
		bm1    int // … and ends
	}{{32, s32, rec0 + 2 + 64, rec0 + 2 + 64 + 32}, {64, s64, rec0 + 3 + 64, rec0 + 3 + 64 + 16}} {
		if w.stream[rec0]&0x8F <= 0x81 {
			t.Fatalf("fp%d seed stream: first record has no outliers (flags %#x)", w.width, w.stream[rec0])
		}
		mutate := func(fn func(b []byte) []byte) []byte {
			return fn(append([]byte{}, w.stream...))
		}
		// The first record's zero padding: past its last packed outlier,
		// short of the next cacheline boundary.
		k := 0
		for _, b := range w.stream[w.bm0:w.bm1] {
			k += bits.OnesCount8(b)
		}
		pad := w.bm1 + k*int(w.width/8)
		if end := w.bm0 - 64 + 64*int(w.stream[rec0]&0x0F); pad >= end {
			t.Fatalf("fp%d seed stream: first record has no padding (%d outliers)", w.width, k)
		}
		flipped := mutate(func(b []byte) []byte { b[pad] ^= 0x10; return b })
		if got, err := (vec.Vec{Width: int(w.width)}).DecodeAppend(avr.NewCodec(0), flipped); err != nil || got.Len() != n {
			t.Fatalf("fp%d: a padding flip must be invisible to the parser: %d values, %v", w.width, got.Len(), err)
		}
		cases := []struct {
			name    string
			data    []byte
			corrupt bool
			// flipAfterOpen, when set, is the stream offset of a bit to flip
			// in the segment file once the store has it open.
			flipAfterOpen int
		}{
			{"intact", w.stream, false, 0},
			{"size 0", mutate(func(b []byte) []byte { b[rec0] &^= 0x0F; return b }), true, 0},
			{"size 9", mutate(func(b []byte) []byte { b[rec0] = b[rec0]&^0x0F | 9; return b }), true, 0},
			{"truncated payload", w.stream[:len(w.stream)-40], true, 0},
			{"popcount != size", mutate(func(b []byte) []byte { clear(b[w.bm0:w.bm1]); return b }), true, 0},
			{"count != record's", mutate(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[4:], n-1)
				return b
			}), true, 0},
			{"bit flip in record padding", w.stream, true, pad},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("fp%d/%s", w.width, tc.name), func(t *testing.T) {
				dir := t.TempDir()
				seg := buildSegment(&record{
					Kind: recordBlock, Seq: 1, Key: "k", BlockIdx: 0,
					TotalVals: n, Width: w.width, Enc: encAVR, ValCount: n,
					T1: 1.0 / 32, Data: tc.data,
				})
				if err := os.WriteFile(segPath(dir, 1), seg, 0o644); err != nil {
					t.Fatal(err)
				}
				s := openTest(t, Config{Dir: dir, CacheBytes: 1 << 20})
				if tc.flipAfterOpen > 0 {
					flipFileBit(t, segPath(dir, 1), int64(bytes.Index(seg, tc.data)+tc.flipAfterOpen), 0x10)
				}

				check := func(path string, err error) {
					t.Helper()
					if tc.corrupt && !errors.Is(err, ErrCorrupt) {
						t.Errorf("%s: err = %v, want ErrCorrupt", path, err)
					}
					if tc.corrupt && err != nil && !strings.Contains(err.Error(), `key "k" block 0`) {
						t.Errorf("%s: err %q does not name block 0", path, err)
					}
					if !tc.corrupt && err != nil {
						t.Errorf("%s: %v", path, err)
					}
				}
				_, _, err := s.GetVec(vec.Vec{}, "k", false, nil)
				check("GetVec", err)

				s.mu.RLock()
				_, err = s.buildLineLocked("k", s.index["k"])
				s.mu.RUnlock()
				check("buildLineLocked", err)

				_, err = s.QueryAggregateTraced("k", nil)
				check("QueryAggregate", err)
				_, err = s.QueryFilterTraced("k", 0, 200, nil)
				check("QueryFilter", err)
				_, err = s.QueryDownsampleTraced("k", nil)
				check("QueryDownsample", err)
			})
		}
	}
}
