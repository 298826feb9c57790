package dganger

import (
	"math"
	"testing"

	"avr/internal/compress"
	"avr/internal/dram"
	"avr/internal/mem"
)

type rig struct {
	space *mem.Space
	d     *dram.DRAM
	llc   *LLC
	base  uint64
}

func newRig() *rig {
	space := mem.NewSpace(8 << 20)
	base := space.AllocApprox(2<<20, compress.Float32)
	d := dram.New(dram.DDR4(1, 1))
	cfg := Config{CapacityBytes: 64 << 10, Ways: 16, HitCycles: 15}
	return &rig{space: space, d: d, llc: New(cfg, space, d), base: base}
}

// fillLine writes 16 equal floats into the line at addr.
func (r *rig) fillLine(addr uint64, v float32) {
	for i := uint64(0); i < 64; i += 4 {
		r.space.StoreF32(addr+i, v)
	}
}

func TestHitMiss(t *testing.T) {
	r := newRig()
	lat1 := r.llc.Access(0, r.base)
	if lat1 <= 15 {
		t.Errorf("miss latency = %d", lat1)
	}
	if lat2 := r.llc.Access(lat1, r.base); lat2 != 15 {
		t.Errorf("hit latency = %d", lat2)
	}
}

func TestSimilarLinesDedup(t *testing.T) {
	r := newRig()
	// Two lines in the same set with near-identical contents. Lines in
	// the same set are sets*64 bytes apart.
	stride := uint64(r.llc.sets * 64)
	a, b := r.base, r.base+stride
	r.fillLine(a, 100.0)
	r.fillLine(b, 100.001) // same signature bucket
	r.llc.Access(0, a)
	r.llc.Access(0, b)
	if r.llc.Stats().Dedups != 1 {
		t.Fatalf("dedups = %d, want 1", r.llc.Stats().Dedups)
	}
	// b now reads as a's values: the Doppelgänger artifact.
	if got := r.space.LoadF32(b); got != 100.0 {
		t.Errorf("deduped line value = %v, want 100 (payload of first line)", got)
	}
}

func TestDissimilarLinesDoNotDedup(t *testing.T) {
	r := newRig()
	stride := uint64(r.llc.sets * 64)
	a, b := r.base, r.base+stride
	r.fillLine(a, 100.0)
	r.fillLine(b, 250.0)
	r.llc.Access(0, a)
	r.llc.Access(0, b)
	if r.llc.Stats().Dedups != 0 {
		t.Errorf("dedups = %d, want 0", r.llc.Stats().Dedups)
	}
	if got := r.space.LoadF32(b); got != 250.0 {
		t.Errorf("line value corrupted: %v", got)
	}
}

func TestNonApproxNeverDedups(t *testing.T) {
	r := newRig()
	na := r.space.Alloc(1<<20, 64)
	stride := uint64(r.llc.sets * 64)
	for i := uint64(0); i < 64; i += 4 {
		r.space.StoreF32(na+i, 7)
		r.space.StoreF32(na+stride+i, 7)
	}
	r.llc.Access(0, na)
	r.llc.Access(0, na+stride)
	if r.llc.Stats().Dedups != 0 {
		t.Error("exact lines deduped")
	}
	if r.space.LoadF32(na+stride) != 7 {
		t.Error("exact data altered")
	}
}

func TestEffectiveCapacityGain(t *testing.T) {
	// With highly similar lines, the 4× tag array lets the cache track
	// 4× the lines of its data capacity: re-touching a working set 2×
	// the data capacity must mostly hit.
	r := newRig()
	lines := (64 << 10) / 64 * 2
	for i := 0; i < lines; i++ {
		r.fillLine(r.base+uint64(i*64), 42.0)
		r.llc.Access(0, r.base+uint64(i*64))
	}
	before := r.llc.Stats().DemandMisses
	for i := 0; i < lines; i++ {
		r.llc.Access(0, r.base+uint64(i*64))
	}
	after := r.llc.Stats().DemandMisses
	if after-before > uint64(lines)/10 {
		t.Errorf("second pass missed %d of %d despite dedup", after-before, lines)
	}
}

func TestEdgeCaseAliasing(t *testing.T) {
	// The failure mode the paper describes: two lines with equal mean
	// and span buckets but different actual values alias.
	r := newRig()
	stride := uint64(r.llc.sets * 64)
	a, b := r.base, r.base+stride
	// Same mean bucket, same span bucket, different layout.
	for i := uint64(0); i < 64; i += 8 {
		r.space.StoreF32(a+i, 99)
		r.space.StoreF32(a+i+4, 101)
		r.space.StoreF32(b+i, 101)
		r.space.StoreF32(b+i+4, 99)
	}
	r.llc.Access(0, a)
	r.llc.Access(0, b)
	if r.llc.Stats().Dedups != 1 {
		t.Skip("bucketing did not alias these patterns") // layout-dependent
	}
	if r.space.LoadF32(b) != 101 {
		// b's first value was 101, a's payload has 99 there.
		if r.space.LoadF32(b) != 99 {
			t.Error("aliased line has unexpected content")
		}
	}
}

func TestWriteBackReassociates(t *testing.T) {
	r := newRig()
	r.fillLine(r.base, 10)
	r.llc.Access(0, r.base)
	// Store drastically different values and write back.
	r.fillLine(r.base, 9999)
	r.llc.WriteBack(0, r.base)
	// The new signature differs; the stored payload must now be 9999.
	r.llc.Flush(0)
	if got := r.space.LoadF32(r.base); got != 9999 {
		t.Errorf("reassociated line = %v, want 9999", got)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig()
	r.fillLine(r.base, 5)
	r.llc.WriteBack(0, r.base)
	w0 := r.d.Stats().BytesWritten
	r.llc.Flush(0)
	if r.d.Stats().BytesWritten <= w0 {
		t.Error("flush did not write dirty line")
	}
}

func TestNaNGetsUniqueSignature(t *testing.T) {
	r := newRig()
	stride := uint64(r.llc.sets * 64)
	for i := uint64(0); i < 64; i += 4 {
		r.space.StoreF32(r.base+i, float32(math.NaN()))
		r.space.StoreF32(r.base+stride+i, float32(math.NaN()))
	}
	r.llc.Access(0, r.base)
	r.llc.Access(0, r.base+stride)
	if r.llc.Stats().Dedups != 0 {
		t.Error("NaN lines deduped")
	}
}

func TestFixedPointSignature(t *testing.T) {
	space := mem.NewSpace(4 << 20)
	base := space.AllocApprox(1<<20, compress.Fixed32)
	d := dram.New(dram.DDR4(1, 1))
	llc := New(Config{CapacityBytes: 64 << 10, Ways: 16, HitCycles: 15}, space, d)
	stride := uint64(llc.sets * 64)
	for i := uint64(0); i < 64; i += 4 {
		space.Store32(base+i, 100000)
		space.Store32(base+stride+i, 100010)
	}
	llc.Access(0, base)
	llc.Access(0, base+stride)
	if llc.Stats().Dedups != 1 {
		t.Errorf("similar fixed lines did not dedup: %+v", llc.Stats())
	}
}
