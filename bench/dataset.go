package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"avr/internal/workloads"
)

// Dataset shape. Every key holds rawKeyBytes of raw values, so a get
// moves the same bytes whatever the width.
const (
	fullKeys    = 1024
	rawKeyBytes = 64 << 10
)

// dists maps i%8 to the generator of key i: three smooth heat fields,
// two periodic waves, a ramp, a spiky "mixed" field and iid noise. One
// friendly distribution would flatter the codec; the noise keys keep the
// lossless fallback in every workload.
var dists = [8]string{"heat", "heat", "heat", "wave", "wave", "ramp", "mixed", "normal"}

// keyInfo describes key i of a dataset.
type keyInfo struct {
	name  string
	width int    // 32 or 64
	nvals int    // values in the vector
	raw   []byte // little-endian payload, exactly what a put sends
	noise bool   // incompressible: stored through the lossless fallback
	truth *truth // query ground truth; nil until buildTruth
}

// class names the key's span and latency class: "" for compressible
// fp32, then "_noise", "64" and "64_noise".
func (k *keyInfo) class() string {
	c := ""
	if k.width == 64 {
		c = "64"
	}
	if k.noise {
		c += "_noise"
	}
	return c
}

// dataset is the seeded key space all serving workloads share. A key's
// values never change across overwrites, so byte counts repeat.
type dataset struct {
	keys   []keyInfo
	values int64 // total values
}

func keyName(i int) string { return fmt.Sprintf("k-%06d", i) }

// keyWidth: every fourth group of eight keys is fp64.
func keyWidth(i int) int {
	if (i/8)%4 == 3 {
		return 64
	}
	return 32
}

// genDataset builds n keys from seed. The per-key generator seed is
// mix64(seed*1_000_003+i): two seeds share no vector, and the mixing
// matters, because the generators draw their parameters from a bare
// xorshift whose first outputs barely differ between small neighbouring
// seeds — unmixed, the keys of a dataset are near copies and its
// compressibility moves 5 % from seed to seed; mixed, 1024 independent
// keys average it to under 1 %. Generation runs on two goroutines: the
// box has two cores.
func genDataset(seed uint64, n int) (*dataset, error) {
	ds := &dataset{keys: make([]keyInfo, n)}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				if err := ds.gen(seed, i); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range ds.keys {
		ds.values += int64(ds.keys[i].nvals)
	}
	return ds, nil
}

func (ds *dataset) gen(seed uint64, i int) error {
	k := &ds.keys[i]
	k.name = keyName(i)
	k.width = keyWidth(i)
	k.nvals = rawKeyBytes / (k.width / 8)
	dist := dists[i%8]
	k.noise = dist == "normal"
	gseed := mix64(seed*1_000_003 + uint64(i))
	k.raw = make([]byte, rawKeyBytes)
	if k.width == 32 {
		v, err := workloads.GenFloat32(dist, k.nvals, gseed)
		if err != nil {
			return err
		}
		for j, x := range v {
			binary.LittleEndian.PutUint32(k.raw[4*j:], math.Float32bits(x))
		}
		return nil
	}
	v, err := workloads.GenFloat64(dist, k.nvals, gseed)
	if err != nil {
		return err
	}
	for j, x := range v {
		binary.LittleEndian.PutUint64(k.raw[8*j:], math.Float64bits(x))
	}
	return nil
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// value returns value j of the key as float64.
func (k *keyInfo) value(j int) float64 {
	return rawValue(k.raw, k.width, j)
}

func rawValue(raw []byte, width, j int) float64 {
	if width == 32 {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:])))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
}

func (k *keyInfo) floats32() []float32 {
	out := make([]float32, k.nvals)
	for j := range out {
		out[j] = math.Float32frombits(binary.LittleEndian.Uint32(k.raw[4*j:]))
	}
	return out
}

func (k *keyInfo) floats64() []float64 {
	out := make([]float64, k.nvals)
	for j := range out {
		out[j] = math.Float64frombits(binary.LittleEndian.Uint64(k.raw[8*j:]))
	}
	return out
}

// checkBound compares a served payload with the key's ground truth value
// by value at the quantized threshold, exactly as withinBound in
// cmd/avrload does. It returns the sum of |x'-x| / (t1q*|x|) over the
// values with x != 0 and their count (for mean_err_over_t1), and false
// on a length mismatch or any value outside the bound.
func (k *keyInfo) checkBound(got []byte, t1q float64) (errSum float64, n int, ok bool) {
	if len(got) != len(k.raw) {
		return 0, 0, false
	}
	ok = true
	for j := 0; j < k.nvals; j++ {
		g, w := rawValue(got, k.width, j), k.value(j)
		d, lim := math.Abs(g-w), t1q*math.Abs(w)
		if d > lim*(1+1e-9) {
			ok = false
		}
		if lim > 0 {
			errSum += d / lim
			n++
		}
	}
	return errSum, n, ok
}

// truth is the exact answer set query responses are checked against,
// accumulated the way the executor does (float64, index order).
type truth struct {
	sum, min, max float64
	points        []float64 // padded 16→1 group means
}

// buildTruth computes every key's query ground truth before the
// workloads that query start, so no client pays for it mid-run.
func (ds *dataset) buildTruth() {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ds.keys); i += 2 {
				ds.keys[i].truth = ds.keys[i].computeTruth()
			}
		}(g)
	}
	wg.Wait()
}

func (k *keyInfo) computeTruth() *truth {
	t := &truth{min: math.Inf(1), max: math.Inf(-1)}
	for j := 0; j < k.nvals; j++ {
		v := k.value(j)
		t.sum += v
		t.min = math.Min(t.min, v)
		t.max = math.Max(t.max, v)
	}
	for g := 0; g*16 < k.nvals; g++ {
		var s float64
		for j := g * 16; j < g*16+16; j++ {
			if j < k.nvals {
				s += k.value(j)
			} else {
				s += k.value(k.nvals - 1) // codec padding convention
			}
		}
		t.points = append(t.points, s/16)
	}
	return t
}

// countIn counts the key's values in [lo, hi].
func (k *keyInfo) countIn(lo, hi float64) int64 {
	var n int64
	for j := 0; j < k.nvals; j++ {
		if v := k.value(j); lo <= v && v <= hi {
			n++
		}
	}
	return n
}
