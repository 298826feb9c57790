package store

import (
	"errors"
	"math"
	"slices"
	"testing"

	"avr"
	"avr/internal/compress"
	"avr/internal/vec"
	"avr/internal/workloads"
)

// fuzzStream32/64 build valid codec streams for fuzz seeds.
func fuzzStream32(tb testing.TB, dist string, n int, t1 float64) []byte {
	tb.Helper()
	vals, err := workloads.GenFloat32(dist, n, 21)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := avr.NewCodec(t1).Encode(vals)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func fuzzStream64(tb testing.TB, dist string, n int, t1 float64) []byte {
	tb.Helper()
	vals, err := workloads.GenFloat64(dist, n, 21)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := avr.NewCodec(t1).Encode64(vals)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzQueryFrame feeds arbitrary bytes to the compressed-domain frame
// walker — queryRun.frame, the consumer readLocked hands each verified
// frame's data on the serving path. The contract: it never panics; every
// access is bounds-checked against the data first, so any damage
// surfaces as ErrCorrupt (never an unclassified error); and a clean walk
// feeds the query exactly the declared number of values.
//
// The same bytes also go through the other two consumers of the stream
// reader — the Get decode (DecodeTo/Decode64To) and the cache fill
// (addAVR32/64): all three must reach one verdict, and on a clean
// stream the cache-hit reconstruction must equal the decode bit for bit.
func FuzzQueryFrame(f *testing.F) {
	s32 := fuzzStream32(f, "heat", 2*compress.BlockValues+17, 1.0/32)
	s64 := fuzzStream64(f, "wave", compress.BlockValues64+9, 1.0/32)
	sMix := fuzzStream32(f, "mixed", compress.BlockValues, 1.0/32)
	sRaw := fuzzStream32(f, "normal", compress.BlockValues, 1.0/1024)

	for op := uint8(0); op < 3; op++ {
		f.Add(s32, uint16(2*compress.BlockValues+17), false, op)
		f.Add(s64, uint16(compress.BlockValues64+9), true, op)
		// The target counts from 1 (valCount = vc mod BlockValues + 1):
		// these are the seeds whose count matches, the clean walks.
		f.Add(s32, uint16(2*compress.BlockValues+16), false, op)
		f.Add(s64, uint16(compress.BlockValues64+8), true, op)
	}
	f.Add(sMix, uint16(compress.BlockValues), false, uint8(1))
	f.Add(sRaw, uint16(compress.BlockValues), false, uint8(0))
	f.Add(s32[:len(s32)-5], uint16(2*compress.BlockValues+17), false, uint8(0)) // torn tail
	f.Add(s32, uint16(7), false, uint8(0))                                      // count mismatch
	f.Add(s32, uint16(2*compress.BlockValues+17), true, uint8(0))               // wrong width
	flip := append([]byte(nil), s32...)
	flip[9] ^= 0x80 // compressed bit of the first record
	f.Add(flip, uint16(2*compress.BlockValues+17), false, uint8(2))
	f.Add([]byte{}, uint16(1), false, uint8(0))

	codec := avr.NewCodec(0)
	var hits Store // just the cache-hit scratch pool serveFromLine draws on
	hits.hits.New = func() any {
		return &hitScratch{comp: compress.NewCompressor(compress.DefaultThresholds())}
	}
	f.Fuzz(func(t *testing.T, data []byte, vc uint16, is64 bool, op8 uint8) {
		width := 32
		if is64 {
			width = 64
		}
		// Mirror parseRecord's ValCount validation (1..BlockValues): the
		// serving path never hands the walker anything outside it.
		valCount := int(vc)%BlockValues + 1
		q := &queryRun{
			op:    qop(op8 % 3),
			qs:    &queryScratch{comp: compress.NewCompressor(compress.DefaultThresholds())},
			width: width,
			minLo: math.Inf(1), minHi: math.Inf(1),
			maxLo: math.Inf(-1), maxHi: math.Inf(-1),
			lo: -1, hi: 1,
		}
		ref := blockRef{seg: 1, frameLen: int64(len(data)), enc: encAVR, valCount: uint32(valCount), t1: 1.0 / 32}

		err := q.frame(ref, data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unclassified walk error: %v", err)
		}
		assertOneVerdict(t, codec, &hits, data, width, valCount, err)
		if err == nil {
			switch q.op {
			case qopAggregate:
				if q.count != int64(valCount) {
					t.Fatalf("clean walk fed %d of %d values", q.count, valCount)
				}
			case qopFilter:
				if q.defIn > q.pos || q.pos > int64(valCount) || q.est > q.pos || q.est < q.defIn {
					t.Fatalf("filter bracket broken: defIn=%d est=%d pos=%d of %d values",
						q.defIn, q.est, q.pos, valCount)
				}
			case qopDownsample:
				if q.groupN != 0 { // as runQuery closes a trailing group
					q.flushGroup()
				}
				want := (valCount + compress.SubBlockSize - 1) / compress.SubBlockSize
				if len(q.points) != want {
					t.Fatalf("clean walk produced %d points for %d values, want %d",
						len(q.points), valCount, want)
				}
			}
		}
	})
}

// assertOneVerdict runs data through the Get decode and the cache fill
// and holds them to the walker's verdict walkErr. The decode does not
// know the frame's value count, so its verdict is "decodes, and to
// valCount values" — exactly what readLocked checks.
func assertOneVerdict(t *testing.T, codec *avr.Codec, s *Store, data []byte, width, valCount int, walkErr error) {
	t.Helper()
	dec, decErr := vec.Vec{Width: width}.DecodeAppend(codec, data)
	if decErr = streamErr(decErr); decErr != nil && !errors.Is(decErr, ErrCorrupt) {
		t.Fatalf("unclassified decode error: %v", decErr)
	}
	decOK := decErr == nil && dec.Len() == valCount

	ln := &cachedLine{width: uint8(width)}
	var fillErr error
	if width == 64 {
		fillErr = ln.addAVR64(data, valCount)
	} else {
		fillErr = ln.addAVR32(data, valCount)
	}
	if fillErr != nil && !errors.Is(fillErr, ErrCorrupt) {
		t.Fatalf("unclassified cache-fill error: %v", fillErr)
	}
	if walkOK := walkErr == nil; decOK != walkOK || (fillErr == nil) != walkOK {
		t.Fatalf("verdicts differ: walk %v, decode %v (%d of %d values), cache fill %v",
			walkErr, decErr, dec.Len(), valCount, fillErr)
	}
	if walkErr != nil {
		return
	}
	ln.nvals = valCount
	hit := s.serveFromLine(vec.Vec{Width: width}, ln)
	// Compare bit patterns: NaNs must match too.
	same := slices.EqualFunc(hit.F32, dec.F32, func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b)
	}) && slices.EqualFunc(hit.F64, dec.F64, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	})
	if !same {
		t.Fatalf("cache-hit reconstruction differs from the decode (%d vs %d values)", hit.Len(), dec.Len())
	}
}
