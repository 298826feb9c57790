package simd

import "math"

// Integer reductions over fixed-point reconstructions — what a store
// query runs in place of the fixed→float conversion. Integer addition,
// min, max and range tests do not depend on evaluation order, so a
// vector body and the pure-Go loop agree bit for bit: the Go forms
// below are both the fallback (no vector tier, non-amd64, and the
// < 8-value tail of every call) and the oracle the kernel tests compare
// against. The vector bodies (reduce_amd64.s) run where Enabled() is
// true; the fp32 pair's are 256-bit code.

// ReduceFixed32 returns Σx, Σ|x| and the min and max of x. Sums are
// exact: 2^31 values of magnitude 2^31 fit an int64. An empty x yields
// zero sums, min = MaxInt32 and max = MinInt32 (the identities).
func ReduceFixed32(x []int32) (sum, abs int64, mn, mx int32) {
	mn, mx = math.MaxInt32, math.MinInt32
	if n := len(x) &^ 7; n != 0 && Enabled() {
		sum, abs, mn, mx = reduceFixed32AVX2(x[:n])
		x = x[n:]
	}
	ts, ta, tmn, tmx := reduceFixed32Go(x)
	return sum + ts, abs + ta, min(mn, tmn), max(mx, tmx)
}

func reduceFixed32Go(x []int32) (sum, abs int64, mn, mx int32) {
	mn, mx = math.MaxInt32, math.MinInt32
	for _, v := range x {
		w := int64(v)
		sum += w
		abs += (w ^ w>>63) - w>>63
		mn = min(mn, v)
		mx = max(mx, v)
	}
	return sum, abs, mn, mx
}

// CountRanges32 counts, for each of three inclusive ranges
// [lo[k], hi[k]], the values of x inside it. A range with lo > hi is
// empty. The test is the single unsigned compare uint32(v−lo) ≤ hi−lo.
func CountRanges32(x []int32, lo, hi *[3]int32) (n [3]int) {
	var w [3]uint32
	for k := range w {
		w[k] = uint32(hi[k]) - uint32(lo[k])
	}
	if m := len(x) &^ 7; m != 0 && Enabled() {
		var c [3]int64
		countRanges32AVX2(x[:m], lo, &w, &c)
		n = [3]int{int(c[0]), int(c[1]), int(c[2])}
		x = x[m:]
	}
	t := countRanges32Go(x, lo, &w)
	for k := range n {
		if n[k] += t[k]; lo[k] > hi[k] {
			n[k] = 0
		}
	}
	return n
}

func countRanges32Go(x []int32, lo *[3]int32, w *[3]uint32) (n [3]int) {
	for _, v := range x {
		for k := range n {
			if uint32(v)-uint32(lo[k]) <= w[k] {
				n[k]++
			}
		}
	}
	return n
}

// ReduceFixed64 is ReduceFixed32 for Q31.32 values. A frame may carry
// any int64, so Σ over even 16 values can wrap: the sums are accumulated
// split (Σ x>>16 and Σ x&0xFFFF, exact for up to 2^15 values) and only
// then rounded to float64 — within 2^-51 of the exact sum relative to
// Σ|x|, the precision a caller scaling them to value units needs.
// len(x) must not exceed 1<<15.
func ReduceFixed64(x []int64) (sum, abs float64, mn, mx int64) {
	// sh, sl, ah, al, min, max
	p := [6]int64{4: math.MaxInt64, 5: math.MinInt64}
	if n := len(x) &^ 7; n != 0 && Enabled() {
		reduceFixed64AVX512(x[:n], &p)
		x = x[n:]
	}
	reduceFixed64Go(x, &p)
	return float64(p[0])*(1<<16) + float64(p[1]), float64(p[2])*(1<<16) + float64(p[3]), p[4], p[5]
}

// reduceFixed64Go folds x into the partial sums and extremes p.
func reduceFixed64Go(x []int64, p *[6]int64) {
	sh, sl, ah, al, mn, mx := p[0], p[1], p[2], p[3], p[4], p[5]
	for _, v := range x {
		sh += v >> 16
		sl += v & 0xFFFF
		a := uint64(v^v>>63) - uint64(v>>63) // |MinInt64| = 2^63 fits
		ah += int64(a >> 16)
		al += int64(a & 0xFFFF)
		mn = min(mn, v)
		mx = max(mx, v)
	}
	*p = [6]int64{sh, sl, ah, al, mn, mx}
}

// CountRanges64 is CountRanges32 for int64 values.
func CountRanges64(x []int64, lo, hi *[3]int64) (n [3]int) {
	var w [3]uint64
	for k := range w {
		w[k] = uint64(hi[k]) - uint64(lo[k])
	}
	if m := len(x) &^ 7; m != 0 && Enabled() {
		var c [3]int64
		countRanges64AVX512(x[:m], lo, &w, &c)
		n = [3]int{int(c[0]), int(c[1]), int(c[2])}
		x = x[m:]
	}
	t := countRanges64Go(x, lo, &w)
	for k := range n {
		if n[k] += t[k]; lo[k] > hi[k] {
			n[k] = 0
		}
	}
	return n
}

func countRanges64Go(x []int64, lo *[3]int64, w *[3]uint64) (n [3]int) {
	for _, v := range x {
		for k := range n {
			if uint64(v)-uint64(lo[k]) <= w[k] {
				n[k]++
			}
		}
	}
	return n
}
