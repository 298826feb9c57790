package block

import (
	"encoding/binary"
	"errors"
	"testing"

	"avr/internal/compress"
)

// testRec describes one record of a hand-built stream: a raw record, or
// a compressed one whose outliers sit at the given value indices.
type testRec struct {
	raw      bool
	outliers []int
}

// appendTestRec writes r through the width's record writer with
// recognisable contents: summary value i is seed+i, outlier j is
// 1000*seed+j, raw value i is seed<<16|i, bias is -seed.
func appendTestRec(t *testing.T, dst []byte, lay *Layout, r testRec, seed int) []byte {
	t.Helper()
	if lay.Width == 64 {
		if r.raw {
			var vals [compress.BlockValues64]uint64
			for i := range vals {
				vals[i] = uint64(seed)<<16 | uint64(i)
			}
			return AppendRaw64(dst, &vals)
		}
		var sum [compress.SummaryValues64]int64
		for i := range sum {
			sum[i] = int64(seed + i)
		}
		var bm [compress.BitmapBytes64]byte
		var outs []uint64
		for j, idx := range r.outliers {
			bm[idx>>3] |= 1 << (idx & 7)
			outs = append(outs, uint64(1000*seed+j))
		}
		return AppendCompressed64(dst, &compress.FastResult64{
			OK: true, Bias: int16(-seed), SizeLines: compress.CompressedLines64(len(outs)),
			Summary: &sum, Bitmap: &bm, Outliers: outs,
		})
	}
	if r.raw {
		var vals [compress.BlockValues]uint32
		for i := range vals {
			vals[i] = uint32(seed)<<16 | uint32(i)
		}
		return AppendRaw32(dst, &vals)
	}
	var sum [compress.SummaryValues]int32
	for i := range sum {
		sum[i] = int32(seed + i)
	}
	var bm [compress.BitmapBytes]byte
	var outs []uint32
	for j, idx := range r.outliers {
		bm[idx>>3] |= 1 << (idx & 7)
		outs = append(outs, uint32(1000*seed+j))
	}
	dst, err := AppendCompressed32(dst, &compress.FastResult{
		OK: true, Method: compress.Method2D, Bias: int8(-seed), SizeLines: compress.CompressedLines(len(outs)),
		Summary: &sum, Bitmap: &bm, Outliers: outs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func testStream(t *testing.T, lay *Layout, count int, recs ...testRec) []byte {
	t.Helper()
	out := lay.AppendHeader(nil, count)
	for i, r := range recs {
		out = appendTestRec(t, out, lay, r, i+1)
	}
	return out
}

// openSlice runs fn over a cursor on data, in a "slice" sub-test.
func openSlice(t *testing.T, lay *Layout, data []byte, want int, fn func(t *testing.T, c *Cursor, err error)) {
	t.Run("slice", func(t *testing.T) {
		c, err := Open(lay, data, want)
		fn(t, &c, err)
	})
}

// drain walks every record, returning them (with their slices copied).
func drain(c *Cursor, err error) ([]Record, error) {
	var recs []Record
	for err == nil && c.More() {
		var r Record
		if err = c.Next(&r); err == nil {
			for _, p := range []*[]byte{&r.Raw, &r.Summary, &r.Bitmap, &r.Outliers} {
				if *p != nil {
					*p = append([]byte{}, *p...)
				}
			}
			recs = append(recs, r)
		}
	}
	return recs, err
}

func TestCursorYieldsWhatTheWritersWrote(t *testing.T) {
	for _, lay := range []*Layout{&Layout32, &Layout64} {
		bv := lay.BlockValues
		recs := []testRec{
			{},                              // outlier-free: one line
			{outliers: []int{0, 9, bv - 1}}, // two lines
			{raw: true},
			{outliers: seq(0, 3*bv/8)}, // enough outliers for 8 lines
			{outliers: []int{5}},       // last record, partial
		}
		count := 4*bv + 7
		data := testStream(t, lay, count, recs...)
		// Bytes after the last record are not the cursor's business.
		data = append(data, 0xFF, 0x80, 0x00)

		t.Run(string(lay.Magic[:]), func(t *testing.T) {
			openSlice(t, lay, data, count, func(t *testing.T, c *Cursor, err error) {
				got, err := drain(c, err)
				if err != nil {
					t.Fatal(err)
				}
				if c.Count() != count || len(got) != len(recs) {
					t.Fatalf("count %d, %d records; want %d, %d", c.Count(), len(got), count, len(recs))
				}
				for i, r := range got {
					seed := i + 1
					wantVals := bv
					if i == len(got)-1 {
						wantVals = 7
					}
					if r.Values != wantVals {
						t.Errorf("record %d yields %d values, want %d", i, r.Values, wantVals)
					}
					if recs[i].raw {
						if len(r.Raw) != compress.BlockBytes || r.Summary != nil || r.Bitmap != nil {
							t.Fatalf("record %d: not a raw record: %+v", i, r)
						}
						if v := binary.LittleEndian.Uint16(r.Raw[lay.Width/8+2:]); int(v) != seed {
							t.Errorf("record %d: raw image holds seed %d, want %d", i, v, seed)
						}
						continue
					}
					if r.Raw != nil || len(r.Summary) != compress.LineBytes {
						t.Fatalf("record %d: not a compressed record: %+v", i, r)
					}
					if r.Bias != int16(-seed) {
						t.Errorf("record %d: bias %d, want %d", i, r.Bias, -seed)
					}
					if lay.Width == 32 && r.Method != compress.Method2D {
						t.Errorf("record %d: method %v, want 2D", i, r.Method)
					}
					if first := int(binary.LittleEndian.Uint16(r.Summary)); first != seed {
						t.Errorf("record %d: summary starts with %d, want %d", i, first, seed)
					}
					k := len(recs[i].outliers)
					if k == 0 {
						if r.Bitmap != nil || r.Outliers != nil {
							t.Errorf("record %d: outlier-free record carries bitmap/outliers", i)
						}
						continue
					}
					if len(r.Bitmap) != lay.BitmapBytes || len(r.Outliers) != k*lay.OutlierBytes {
						t.Fatalf("record %d: %d bitmap bytes, %d outlier bytes; want %d, %d",
							i, len(r.Bitmap), len(r.Outliers), lay.BitmapBytes, k*lay.OutlierBytes)
					}
					for _, idx := range recs[i].outliers {
						if r.Bitmap[idx>>3]&(1<<(idx&7)) == 0 {
							t.Errorf("record %d: bitmap misses outlier at %d", i, idx)
						}
					}
					last := r.Outliers[(k-1)*lay.OutlierBytes:]
					if v := int(binary.LittleEndian.Uint32(last)); v != 1000*seed+k-1 {
						t.Errorf("record %d: last outlier %d, want %d", i, v, 1000*seed+k-1)
					}
				}
			})
		})
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestCursorRejections: every structural defect is ErrMalformed, for
// both widths, and is found no later than the record that carries it.
func TestCursorRejections(t *testing.T) {
	for _, lay := range []*Layout{&Layout32, &Layout64} {
		bv, h := lay.BlockValues, lay.HeaderBytes
		rec0 := streamHeaderBytes // offset of the first record
		good := testStream(t, lay, 2*bv, testRec{outliers: []int{1, 2, 3}}, testRec{raw: true})
		mutate := func(fn func(b []byte) []byte) []byte {
			return fn(append([]byte{}, good...))
		}
		cases := []struct {
			name string
			data []byte
			want int // Open's want argument
			// goodRecs is how many records must still come out before the error.
			goodRecs int
		}{
			{"bad magic", mutate(func(b []byte) []byte { b[3] ^= 1; return b }), -1, 0},
			{"other width's magic", mutate(func(b []byte) []byte {
				other := &Layout64
				if lay.Width == 64 {
					other = &Layout32
				}
				copy(b, other.Magic[:])
				return b
			}), -1, 0},
			{"count mismatch", good, 2*bv - 1, 0},
			{"short stream header", good[:streamHeaderBytes-1], -1, 0},
			{"empty", nil, -1, 0},
			{"count larger than the bytes can hold", mutate(func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[4:], 1<<31)
				return b
			}), -1, 0},
			{"size 0", mutate(func(b []byte) []byte { b[rec0] = flagCompressed; return b }), -1, 0},
			{"size 9", mutate(func(b []byte) []byte { b[rec0] = flagCompressed | 9; return b }), -1, 0},
			{"popcount below size", mutate(func(b []byte) []byte {
				clear(b[rec0+h+compress.LineBytes:][:lay.BitmapBytes])
				return b
			}), -1, 0},
			{"popcount above size", mutate(func(b []byte) []byte {
				for i := range b[rec0+h+compress.LineBytes:][:lay.BitmapBytes] {
					b[rec0+h+compress.LineBytes+i] = 0xFF
				}
				return b
			}), -1, 0},
			// Too short for two minimum records: caught at open.
			{"short record header", good[:rec0+h+2*compress.LineBytes+h-1], 2 * bv, 0},
			{"short summary line", good[:rec0+h+2*compress.LineBytes+h+compress.LineBytes-1], 2 * bv, 1},
			{"short raw record", good[:len(good)-1], 2 * bv, 1},
			{"short compressed payload", mutate(func(b []byte) []byte {
				// Claim 3 lines where the stream ends after 2.
				b = b[:rec0+h+2*compress.LineBytes]
				b[rec0] = flagCompressed | 3
				binary.LittleEndian.PutUint32(b[4:], uint32(bv))
				return b
			}), bv, 0},
		}
		for _, tc := range cases {
			t.Run(string(lay.Magic[:])+"/"+tc.name, func(t *testing.T) {
				openSlice(t, lay, tc.data, tc.want, func(t *testing.T, c *Cursor, err error) {
					recs, err := drain(c, err)
					if !errors.Is(err, ErrMalformed) {
						t.Fatalf("err = %v, want ErrMalformed", err)
					}
					if len(recs) != tc.goodRecs {
						t.Errorf("%d records before the error, want %d", len(recs), tc.goodRecs)
					}
				})
			})
		}
	}
}

func TestStreamWidth(t *testing.T) {
	for _, tc := range []struct {
		data string
		want int
	}{
		{"AVR1\x00", 32}, {"AVR8", 64}, {"AVR", 0}, {"AVR2....", 0}, {"", 0},
	} {
		if got := StreamWidth([]byte(tc.data)); got != tc.want {
			t.Errorf("StreamWidth(%q) = %d, want %d", tc.data, got, tc.want)
		}
	}
}
