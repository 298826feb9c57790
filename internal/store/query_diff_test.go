package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"avr/internal/block"
	"avr/internal/compress"
	"avr/internal/fixed"
	"avr/internal/vec"
)

// The differential harness: the fixed-domain walk of query.go against
// the retained per-value walk (oracleRun, oracle_test.go) over the same
// verified frames. The two may differ only where the fixed domain says
// they may — a sum taken before the float conversion instead of after
// it, and the conversion slack that puts into its bound.

// oracleQuery runs the retained walk over key's frames, reading them
// the way readLocked does.
func oracleQuery(t testing.TB, s *Store, key string, op qop, lo, hi float64) *oracleRun {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.index[key]
	if !ok {
		t.Fatalf("oracle: no key %q", key)
	}
	o := newOracleRun(op, int(e.width), lo, hi)
	gs := &getScratch{}
	o.stats.Complete = e.complete()
	for _, ref := range e.refs {
		if ref.seg == 0 {
			break
		}
		buf, err := s.readSegmentLocked(ref.seg, ref.off, ref.frameLen, gs)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, _, err := verifyFrame(buf, ref.frameLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.frame(ref, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	o.finish()
	return o
}

// near reports whether a and b are within rel of each other (or both
// the same infinity).
func near(a, b, rel float64) bool {
	return a == b || math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))+1e-300
}

// boundSlack is how much a fixed-domain bound may exceed the oracle's:
// fs/f = 1 + (1+1/f)·convSlack, below 1 + 2^-13 down to t1 = 1/1024.
const boundSlack = 0x1p-12

func diffAggregate(t testing.TB, key string, got AggregateResult, o *oracleRun) {
	t.Helper()
	if got.Count != o.count || got.QueryStats != o.stats {
		t.Fatalf("%s: aggregate count/stats %d %+v, oracle %d %+v", key, got.Count, got.QueryStats, o.count, o.stats)
	}
	if d := math.Abs(got.Sum - o.sum); !(d <= (0x1p-23+2*sumSlack)*o.sumAbs+1e-300) && !(math.IsNaN(got.Sum) && math.IsNaN(o.sum)) {
		t.Fatalf("%s: sum %g vs oracle %g: apart by %g with Σ|r| = %g", key, got.Sum, o.sum, d, o.sumAbs)
	}
	oldBound := o.sumW + sumSlack*o.sumAbs
	if !(got.ErrorBound <= oldBound*(1+boundSlack)+o.eps*float64(o.count)) && !math.IsNaN(oldBound) {
		t.Fatalf("%s: error bound %g, oracle %g", key, got.ErrorBound, oldBound)
	}
	if o.count == 0 {
		return
	}
	// The envelopes come from the same float expressions applied to the
	// attained extremes, so they agree to rounding.
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"min", got.Min, o.minLo}, {"min+bound", got.Min + got.MinErrorBound, o.minHi},
		{"max", got.Max, o.maxHi}, {"max-bound", got.Max - got.MaxErrorBound, o.maxLo},
	} {
		if !near(c.got, c.want, 1e-12) {
			t.Fatalf("%s: %s %g, oracle %g", key, c.name, c.got, c.want)
		}
	}
}

func diffFilter(t testing.TB, key string, got FilterResult, o *oracleRun) {
	t.Helper()
	if got.QueryStats != o.stats {
		t.Fatalf("%s: filter stats %+v, oracle %+v", key, got.QueryStats, o.stats)
	}
	if got.Matches != o.est || got.MatchesMin < o.defIn || got.MatchesMax > o.pos {
		t.Fatalf("%s [%g,%g]: matches %d in [%d, %d], oracle %d in [%d, %d]",
			key, got.Lo, got.Hi, got.Matches, got.MatchesMin, got.MatchesMax, o.est, o.defIn, o.pos)
	}
}

func diffDownsample(t testing.TB, key string, got DownsampleResult, o *oracleRun) {
	t.Helper()
	if got.QueryStats != o.stats || len(got.Points) != len(o.points) || len(got.Bounds) != len(o.bounds) {
		t.Fatalf("%s: downsample %d points %+v, oracle %d %+v", key, len(got.Points), got.QueryStats, len(o.points), o.stats)
	}
	for g := range got.Points {
		if d := math.Abs(got.Points[g] - o.points[g]); !(d <= boundSlack*o.bounds[g]+1e-300) && !math.IsNaN(o.points[g]) {
			t.Fatalf("%s: point %d = %g, oracle %g ± %g", key, g, got.Points[g], o.points[g], o.bounds[g])
		}
		if !(got.Bounds[g] <= o.bounds[g]*(1+boundSlack)+o.eps) && !math.IsNaN(o.bounds[g]) {
			t.Fatalf("%s: bound %d = %g, oracle %g", key, g, got.Bounds[g], o.bounds[g])
		}
	}
}

// diffAll runs the three ops (filter over bands) both ways on key.
func diffAll(t *testing.T, s *Store, key string, bands [][2]float64) {
	t.Helper()
	agg, err := s.QueryAggregateTraced(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	diffAggregate(t, key, agg, oracleQuery(t, s, key, qopAggregate, 0, 0))
	for _, band := range bands {
		if !(band[0] <= band[1]) {
			continue
		}
		fr, err := s.QueryFilterTraced(key, band[0], band[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		diffFilter(t, key, fr, oracleQuery(t, s, key, qopFilter, band[0], band[1]))
	}
	ds, err := s.QueryDownsampleTraced(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	diffDownsample(t, key, ds, oracleQuery(t, s, key, qopDownsample, 0, 0))
}

// recordShapes tallies which record shapes a key's AVR frames hold, so
// a crafted vector can prove it built what it set out to.
type recordShapes struct {
	avr, raw, method2D          int
	outlierLast, outlierPadding int // a set bitmap bit at take−1; at or past take
	fullGroup                   int // a group of 16 that is all outliers
}

func shapesOf(t *testing.T, s *Store, key string) (sh recordShapes) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.index[key]
	gs := &getScratch{}
	for _, ref := range e.refs {
		if ref.enc != encAVR {
			continue
		}
		buf, err := s.readSegmentLocked(ref.seg, ref.off, ref.frameLen, gs)
		if err != nil {
			t.Fatal(err)
		}
		fr, _, _, err := verifyFrame(buf, ref.frameLen)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := block.Open(streamLayout(int(e.width)), fr.Data, int(ref.valCount))
		for err == nil && cur.More() {
			var rec block.Record
			if err = cur.Next(&rec); err != nil {
				break
			}
			if rec.Raw != nil {
				sh.raw++
				continue
			}
			sh.avr++
			if e.width == 32 && rec.Method == compress.Method2D {
				sh.method2D++
			}
			if bitSet(rec.Bitmap, rec.Values-1) {
				sh.outlierLast++
			}
			for i := rec.Values; i < 8*len(rec.Bitmap); i++ {
				if bitSet(rec.Bitmap, i) {
					sh.outlierPadding++
					break
				}
			}
			for g := 0; 2*g+1 < len(rec.Bitmap); g++ {
				if rec.Bitmap[2*g] == 0xFF && rec.Bitmap[2*g+1] == 0xFF {
					sh.fullGroup++
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return sh
}

// TestQueryMatchesOracleCrafted drives the shapes the generators do not
// reliably produce — 2D records, a group that is all outliers, an
// outlier at the last live position and in the padding behind it —
// through both walks at three thresholds, f > 1 among them, and checks
// the answers against ground truth as well.
func TestQueryMatchesOracleCrafted(t *testing.T) {
	const n = 2*compress.BlockValues + 100 // last record holds 100 values: padding to 112 and beyond
	smooth := func(i int) float64 { return 40 + 10*math.Sin(float64(i)/40) }
	vectors := map[string]func(i int) float64{
		// 16×16 tiles smooth both ways, rough read row-major: the 2D layout wins.
		"tiles": func(i int) float64 {
			r, c := i%compress.BlockValues/16, i%16
			return 100 + 30*math.Sin(float64(r)/5)*math.Cos(float64(c)/5) + 25*float64(c)
		},
		// A smooth curve with one group replaced by noise across
		// magnitudes and signs.
		"group": func(i int) float64 {
			if i >= 32 && i < 48 {
				return []float64{900, -700, 0.001, 4000}[i%4] * float64(1+i%5)
			}
			return smooth(i)
		},
		// The last live value far off the curve: the encoder pads the
		// block with it, so the padding positions are outliers too.
		"tail": func(i int) float64 {
			if i == n-1 {
				return -5000
			}
			return smooth(i)
		},
	}
	var seen recordShapes
	for _, t1 := range []float64{1.0 / 1024, 1.0 / 32, 0.6} {
		for _, width := range []int{32, 64} {
			s := openTest(t, Config{T1: t1})
			for name, gen := range vectors {
				key := fmt.Sprintf("%s/fp%d/t1=%g", name, width, t1)
				vals := make([]float64, n)
				w32 := make([]float32, n)
				for i := range vals {
					w32[i] = float32(gen(i))
					vals[i] = gen(i)
					if width == 32 {
						vals[i] = float64(w32[i])
					}
				}
				var err error
				if width == 32 {
					_, err = s.Put32(key, w32)
				} else {
					_, err = s.Put64(key, vals)
				}
				if err != nil {
					t.Fatal(err)
				}
				sh := shapesOf(t, s, key)
				seen.method2D += sh.method2D
				seen.outlierLast += sh.outlierLast
				seen.outlierPadding += sh.outlierPadding
				seen.fullGroup += sh.fullGroup
				gt := NewTruth(vec.Of64(vals))
				bands := queryBands(gt)
				diffAll(t, s, key, bands)
				agg, _ := s.QueryAggregateTraced(key, nil)
				holds(t, key, gt.Aggregate(agg))
				for _, band := range bands {
					fr, _ := s.QueryFilterTraced(key, band[0], band[1], nil)
					holds(t, key, gt.Filter(fr))
				}
				ds, _ := s.QueryDownsampleTraced(key, nil)
				holds(t, key, gt.Downsample(ds))
			}
		}
	}
	if seen.method2D == 0 || seen.outlierLast == 0 || seen.outlierPadding == 0 || seen.fullGroup == 0 {
		t.Fatalf("crafted vectors missed a shape: %+v", seen)
	}
}

// queryBands are the filter ranges the property tests run: the
// checkers' bands and one that matches nothing.
func queryBands(gt *Truth) [][2]float64 {
	return append(gt.Bands(), [2]float64{gt.Max + 1 + math.Abs(gt.Max), gt.Max + 2 + 2*math.Abs(gt.Max)})
}

// TestThresholdSearch pins firstTrue on the edges a full-domain search
// meets: no x, every x, the two ends, and midpoints that would overflow
// a signed difference.
func TestThresholdSearch(t *testing.T) {
	for _, at := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64} {
		x, ok := firstTrue(math.MinInt64, math.MaxInt64, func(x int64) bool { return x >= at })
		if !ok || x != at {
			t.Fatalf("firstTrue(x >= %d) = %d, %v", at, x, ok)
		}
	}
	if _, ok := firstTrue(math.MinInt32, math.MaxInt32, func(int64) bool { return false }); ok {
		t.Fatal("firstTrue found an x for a predicate that never holds")
	}
}

// TestThresholdsMatchPerValue pins the mapping itself: on either side of
// each of the six thresholds, at the domain's ends and at random fixed
// values, the three range counts classify exactly as the per-value
// test does — both widths, several biases and thresholds, predicates
// that sit inside, astride and outside the representable values.
func TestThresholdsMatchPerValue(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 300; round++ {
		width := 32 << (round & 1)
		q := &queryRun{op: qopFilter, width: width, qs: &queryScratch{comp: compress.NewCompressor(compress.DefaultThresholds())}}
		q.setRef([]float64{1.0 / 1024, 1.0 / 32, 0.25, 0.5}[rng.Intn(4)])
		bias := rng.Intn(40) - 20
		// One value in value units, then a band around or beside it.
		mid := math.Ldexp(rng.Float64()*2-1, fixed.TargetExp-bias-rng.Intn(12))
		if width == 64 {
			mid = math.Ldexp(rng.Float64()*2-1, fixed.TargetExp64-bias-rng.Intn(12))
		}
		switch rng.Intn(4) {
		case 0:
			q.lo, q.hi = mid, mid
		case 1:
			q.lo, q.hi = math.Inf(-1), mid
		case 2:
			q.lo, q.hi = -math.Abs(mid), math.Abs(mid)*rng.Float64()
		default:
			q.lo, q.hi = mid-math.Abs(mid)*rng.Float64()/8, mid+math.Abs(mid)*rng.Float64()/8
		}
		rec := block.Record{Bias: int16(bias), Summary: make([]byte, 64)}
		var b fixedBlock = &q.qs.b32
		lim := int64(math.MaxInt32)
		if width == 64 {
			b, lim = &q.qs.b64, math.MaxInt64
		}
		b.load(rec.Summary, rec.Bias)
		b.reconstruct(q.qs.comp, compress.Method1D)
		th := q.thresholds(b, bias)
		xs := []int64{^lim, ^lim + 1, -1, 0, 1, lim - 1, lim}
		for k := range th.lo {
			for d := int64(-2); d <= 2; d++ {
				xs = append(xs, th.lo[k]+d, th.hi[k]+d)
			}
		}
		for i := 0; i < 64; i++ {
			xs = append(xs, int64(rng.Uint64())>>(rng.Intn(40)))
		}
		for _, x := range xs {
			if x < ^lim || x > lim {
				continue
			}
			if width == 64 {
				q.qs.b64.x[0] = x
			} else {
				q.qs.b32.x[0] = int32(x)
			}
			if got, want := q.classify(b, th, 0, 1), q.classify(b, nil, 0, 1); got != want {
				t.Fatalf("round %d fp%d bias %d f %g [%g, %g]: x = %d classified %v by thresholds %+v, %v per value",
					round, width, bias, q.f, q.lo, q.hi, x, got, *th, want)
			}
		}
	}
}
