package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"avr"
	"avr/internal/vec"
)

// TestStructuralDamageIsErrCorruptOnEveryReadPath plants frames whose
// CRC is valid but whose AVR stream is not, and requires the three
// consumers of the stream — Get, cache fill, each query op — to agree
// that the key is corrupt. (Get used to surface the codec's bare error.)
func TestStructuralDamageIsErrCorruptOnEveryReadPath(t *testing.T) {
	const n = 300 // two fp32 records, three fp64 records
	spiky32 := make([]float32, n)
	spiky64 := make([]float64, n)
	for i := range spiky32 {
		v := 100 + math.Sin(float64(i)/30)
		if i%50 == 3 {
			v *= 1.5 // outliers: the first record carries a bitmap
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
		cases := []struct {
			name    string
			data    []byte
			corrupt bool
		}{
			{"intact", w.stream, false},
			{"size 0", mutate(func(b []byte) []byte { b[rec0] &^= 0x0F; return b }), true},
			{"size 9", mutate(func(b []byte) []byte { b[rec0] = b[rec0]&^0x0F | 9; return b }), true},
			{"truncated payload", w.stream[:len(w.stream)-40], true},
			{"popcount != size", mutate(func(b []byte) []byte { clear(b[w.bm0:w.bm1]); return b }), true},
			{"count != record's", mutate(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[4:], n-1)
				return b
			}), true},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("fp%d/%s", w.width, tc.name), func(t *testing.T) {
				dir := t.TempDir()
				seg := buildSegment(&record{
					Kind: recordBlock, Seq: 1, Key: "k", BlockIdx: 0,
					TotalVals: n, Width: w.width, Enc: encAVR, ValCount: n,
					T1: 1.0 / 32, Data: tc.data,
				})
				if err := os.WriteFile(segFile(dir, 1), seg, 0o644); err != nil {
					t.Fatal(err)
				}
				s := openTest(t, Config{Dir: dir, CacheBytes: 1 << 20})

				check := func(path string, err error) {
					t.Helper()
					if tc.corrupt && !errors.Is(err, ErrCorrupt) {
						t.Errorf("%s: err = %v, want ErrCorrupt", path, err)
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

				_, err = s.QueryAggregate("k")
				check("QueryAggregate", err)
				_, err = s.QueryFilter("k", 0, 200)
				check("QueryFilter", err)
				_, err = s.QueryDownsample("k")
				check("QueryDownsample", err)
			})
		}
	}
}
