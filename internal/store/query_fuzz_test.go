package store

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"avr"
	"avr/internal/block"
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
// It is differential: the retained per-value walk (oracleRun) runs over
// the same bytes and must reach the same verdict, the same counts and
// block tallies — and, wherever the frame's arithmetic is the arithmetic
// an encoder can produce (saneFrame), the same answers to within what
// the fixed domain may move (diffAggregate/Filter/Downsample). op8 picks
// the op and one of three thresholds, f > 1 among them.
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
	// Clean walks with outliers at the other thresholds (op8/3 picks t1).
	for op := uint8(3); op < 9; op++ {
		f.Add(sMix, uint16(compress.BlockValues-1), false, op)
		f.Add(s64, uint16(compress.BlockValues64+8), true, op)
	}

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
		op := qop(op8 % 3)
		q := &queryRun{
			op:    op,
			qs:    &queryScratch{comp: compress.NewCompressor(compress.DefaultThresholds())},
			width: width,
			minLo: math.Inf(1), minHi: math.Inf(1),
			maxLo: math.Inf(-1), maxHi: math.Inf(-1),
			lo: -1, hi: 1,
		}
		t1 := []float64{1.0 / 32, 1.0 / 1024, 0.6}[op8/3%3]
		ref := blockRef{seg: 1, frameLen: int64(len(data)), enc: encAVR, valCount: uint32(valCount), t1: t1}

		err := q.frame(ref, data)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unclassified walk error: %v", err)
		}
		o := newOracleRun(op, width, q.lo, q.hi)
		oerr := o.frame(ref, data)
		o.finish()
		if (err == nil) != (oerr == nil) {
			t.Fatalf("verdicts differ: walk %v, per-value walk %v", err, oerr)
		}
		assertOneVerdict(t, codec, &hits, data, width, valCount, err)
		if err != nil {
			return
		}
		if q.stats != o.stats {
			t.Fatalf("stats %+v, per-value walk %+v", q.stats, o.stats)
		}
		sane := saneFrame(t, data, width, valCount)
		switch op {
		case qopAggregate:
			if q.count != int64(valCount) {
				t.Fatalf("clean walk fed %d of %d values", q.count, valCount)
			}
			if sane {
				diffAggregate(t, "fuzz", q.aggregateResult("fuzz"), o)
			}
		case qopFilter:
			if q.defIn > q.pos || q.pos > int64(valCount) || q.est > q.pos || q.est < q.defIn {
				t.Fatalf("filter bracket broken: defIn=%d est=%d pos=%d of %d values",
					q.defIn, q.est, q.pos, valCount)
			}
			if sane {
				diffFilter(t, "fuzz", FilterResult{Lo: q.lo, Hi: q.hi, Matches: q.est,
					MatchesMin: q.defIn, MatchesMax: q.pos, QueryStats: q.stats}, o)
			}
		case qopDownsample:
			want := (valCount + compress.SubBlockSize - 1) / compress.SubBlockSize
			if len(q.points) != want || len(o.points) != want {
				t.Fatalf("clean walk produced %d points (per-value walk %d) for %d values, want %d",
					len(q.points), len(o.points), valCount, want)
			}
			if sane {
				diffDownsample(t, "fuzz", DownsampleResult{Points: q.points, Bounds: q.bounds, QueryStats: q.stats}, o)
			}
		}
	})
}

// saneFrame reports whether a well-formed stream's arithmetic is one an
// encoder can produce — the condition under which the fixed-domain walk
// and the per-value walk owe each other equal answers. Outside it the
// decode's exponent surgery wraps (a fixed value whose float would
// leave the normal range at this bias), fp64 interpolation overflows
// int64, or values are not finite; both walks then answer from
// arithmetic that means nothing, each in its own way, and only
// their counts and verdicts are compared.
func saneFrame(t *testing.T, data []byte, width, valCount int) bool {
	comp := compress.NewCompressor(compress.DefaultThresholds())
	cur, err := block.Open(streamLayout(width), data, valCount)
	for err == nil && cur.More() {
		var rec block.Record
		if err = cur.Next(&rec); err != nil {
			break
		}
		n := (rec.Values + group - 1) / group * group
		// Exact values: the raw payload's span, or the packed outliers.
		exact := rec.Outliers
		if rec.Raw != nil {
			exact = rec.Raw[:n*width/8]
		}
		for ; len(exact) > 0; exact = exact[width/8:] {
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(exact)))
			if width == 64 {
				v = math.Float64frombits(binary.LittleEndian.Uint64(exact))
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		if rec.Raw != nil {
			continue
		}
		if width == 64 {
			var b fixed64
			b.load(rec.Summary, rec.Bias)
			for _, v := range b.sum {
				if v > 1<<62 || v < -1<<62 || fixedFloat64(v, b.bias) != b.float(v) {
					return false
				}
			}
			b.reconstruct(comp, 0)
			for i := 0; i < n; i++ {
				if !bitSet(rec.Bitmap, i) && fixedFloat64(b.x[i], b.bias) != b.at(i) {
					return false
				}
			}
			continue
		}
		var b fixed32
		b.load(rec.Summary, rec.Bias)
		for _, v := range b.sum {
			if fixedFloat32(v, b.bias) != b.float(int64(v)) {
				return false
			}
		}
		b.reconstruct(comp, rec.Method)
		for i := 0; i < n; i++ {
			if !bitSet(rec.Bitmap, i) && fixedFloat32(b.x[i], b.bias) != b.at(i) {
				return false
			}
		}
	}
	if err != nil {
		t.Fatalf("saneFrame over a stream the walk accepted: %v", err)
	}
	return true
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
