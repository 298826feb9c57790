package simd_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"avr"
	"avr/internal/block"
	"avr/internal/compress"
	"avr/internal/simd"
	"avr/internal/workloads"
)

// One codec pass over a generated vector at both widths: the encoded
// streams, the decoded bit patterns, and every AVR record's fixed-point
// reconstruction (which a float conversion could round two different
// integers onto one value and hide).
type codecPass struct {
	enc32, enc64 []byte
	dec32        []uint32
	dec64        []uint64
	fixed        []int64
}

func runCodec(t *testing.T, dist string, t1 float64) codecPass {
	t.Helper()
	const n = 3*compress.BlockValues*16 + 77 // three 16-record keys and a partial record
	v32, err := workloads.GenFloat32(dist, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	v64, err := workloads.GenFloat64(dist, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := avr.NewCodec(t1)
	var p codecPass
	if p.enc32, err = c.Encode(v32); err != nil {
		t.Fatal(err)
	}
	if p.enc64, err = c.Encode64(v64); err != nil {
		t.Fatal(err)
	}
	d32, err := c.Decode(p.enc32)
	if err != nil {
		t.Fatal(err)
	}
	d64, err := c.Decode64(p.enc64)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d32 {
		p.dec32 = append(p.dec32, math.Float32bits(v))
	}
	for _, v := range d64 {
		p.dec64 = append(p.dec64, math.Float64bits(v))
	}
	comp := compress.NewCompressor(compress.DefaultThresholds())
	for _, lay := range []*block.Layout{&block.Layout32, &block.Layout64} {
		data := p.enc32
		if lay.Width == 64 {
			data = p.enc64
		}
		cur, err := block.Open(lay, data, n)
		var rec block.Record
		for err == nil && cur.More() {
			if err = cur.Next(&rec); err != nil || rec.Raw != nil {
				continue
			}
			if lay.Width == 64 {
				var sum [compress.SummaryValues64]int64
				block.ReadSummary64(&sum, rec.Summary)
				p.fixed = append(p.fixed, comp.ReconstructFixed64(&sum)[:]...)
				continue
			}
			var sum [compress.SummaryValues]int32
			block.ReadSummary32(&sum, rec.Summary)
			for _, x := range comp.ReconstructFixed32(&sum, rec.Method) {
				p.fixed = append(p.fixed, int64(x))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestKernelsAndFallbackSameBytes encodes every generator the load tools
// serve, at both widths and three thresholds, once with the vector tiers
// this machine has and once with all of them forced off, and demands the
// same bytes out of each step: a kernel that differs from the loop it
// replaces in any lane a real encoder reaches changes a stream here.
func TestKernelsAndFallbackSameBytes(t *testing.T) {
	if !simd.Enabled() {
		t.Skip("AVX-512 not available: the fallback is the only path")
	}
	for _, dist := range workloads.Distributions() {
		for _, t1 := range []float64{0.005, 0, 0.2} {
			kern := runCodec(t, dist, t1)
			restore := simd.ForceFallback()
			if simd.Enabled() {
				restore()
				t.Fatal("ForceFallback left a tier enabled")
			}
			scalar := runCodec(t, dist, t1)
			restore()
			switch {
			case !bytes.Equal(kern.enc32, scalar.enc32):
				t.Errorf("%s t1=%g: fp32 streams differ", dist, t1)
			case !bytes.Equal(kern.enc64, scalar.enc64):
				t.Errorf("%s t1=%g: fp64 streams differ", dist, t1)
			case !slices.Equal(kern.dec32, scalar.dec32):
				t.Errorf("%s t1=%g: fp32 decoded bits differ", dist, t1)
			case !slices.Equal(kern.dec64, scalar.dec64):
				t.Errorf("%s t1=%g: fp64 decoded bits differ", dist, t1)
			case !slices.Equal(kern.fixed, scalar.fixed):
				t.Errorf("%s t1=%g: fixed-point reconstructions differ", dist, t1)
			case len(kern.fixed) == 0 && dist != "normal":
				t.Errorf("%s t1=%g: no AVR record to reconstruct", dist, t1)
			}
		}
	}
}
