package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"avr/internal/vec"
	"avr/internal/workloads"
)

// genVec generates n values of dist at the given width.
func genVec(t testing.TB, dist string, width, n int, seed uint64) vec.Vec {
	t.Helper()
	if width == 64 {
		v, err := workloads.GenFloat64(dist, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return vec.Of64(v)
	}
	v, err := workloads.GenFloat32(dist, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return vec.Of32(v)
}

// containerFor encodes vals the way a router in front of s would.
func containerFor(t testing.TB, s *Store, vals vec.Vec) []byte {
	t.Helper()
	c, err := NewEncoder(s.Stats().T1).AppendPut(nil, vals)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameBits compares two vectors bit for bit (NaNs included).
func sameBits(a, b vec.Vec) bool {
	return a.Width == b.Width && bytes.Equal(a.AppendLE(nil), b.AppendLE(nil))
}

// segmentBytes reads every segment file of dir, in name order.
func segmentBytes(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, ent := range ents {
		b, err := os.ReadFile(dir + "/" + ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = b
	}
	return out
}

// TestPutEncodedMatchesPutVec is the differential pin of the split write
// path: a store fed PutVec and a store fed Encoder.AppendPut +
// PutEncoded, same keys in the same order, hold byte-identical segment
// files and return bit-identical vectors — every distribution, both
// widths, lengths on every side of a block boundary. Both run the one
// block-encode loop; what this pins is that PutVec's blocks, sliced
// unchecked from the buffer it encoded into, commit exactly what the
// checked container does.
func TestPutEncodedMatchesPutVec(t *testing.T) {
	lengths := []int{1, BlockValues - 1, BlockValues, BlockValues + 1, 4 * BlockValues}
	for _, width := range []int{32, 64} {
		t.Run(fmt.Sprintf("fp%d", width), func(t *testing.T) {
			direct := openTest(t, Config{})
			shipped := openTest(t, Config{})
			var keys []string
			for di, dist := range workloads.Distributions() {
				for _, n := range lengths {
					key := fmt.Sprintf("%s-%d", dist, n)
					keys = append(keys, key)
					vals := genVec(t, dist, width, n, uint64(100*di+n))
					want, err := direct.PutVec(key, vals, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := shipped.PutEncoded(key, containerFor(t, shipped, vals), nil)
					if err != nil {
						t.Fatalf("%s: PutEncoded: %v", key, err)
					}
					if got != want {
						t.Fatalf("%s: PutEncoded reports %+v, PutVec %+v", key, got, want)
					}
				}
			}
			for _, key := range keys {
				a, _, aerr := direct.GetVec(vec.Vec{}, key, false, nil)
				b, _, berr := shipped.GetVec(vec.Vec{}, key, false, nil)
				if aerr != nil || berr != nil || !sameBits(a, b) {
					t.Fatalf("%s: reads differ (%v, %v)", key, aerr, berr)
				}
			}
			if a, b := direct.Stats(), shipped.Stats(); a.LiveBytes != b.LiveBytes || a.RawBytes != b.RawBytes ||
				a.Blocks != b.Blocks || a.FlaggedBlocks != b.FlaggedBlocks {
				t.Fatalf("stats differ: PutVec %d live / %d raw bytes, %d blocks, %d flagged; PutEncoded %d / %d, %d, %d",
					a.LiveBytes, a.RawBytes, a.Blocks, a.FlaggedBlocks, b.LiveBytes, b.RawBytes, b.Blocks, b.FlaggedBlocks)
			}
			direct.Close()
			shipped.Close()
			want, got := segmentBytes(t, direct.cfg.Dir), segmentBytes(t, shipped.cfg.Dir)
			if len(want) == 0 || len(got) != len(want) {
				t.Fatalf("%d segment files against %d", len(got), len(want))
			}
			for name, w := range want {
				if !bytes.Equal(got[name], w) {
					t.Fatalf("segment %s differs: %d bytes against %d", name, len(got[name]), len(w))
				}
			}
		})
	}
}

// TestPutEncodedOverwritesAndFlags: an encoded put replaces a PutVec'd
// value and the other way round, and a lossless block that arrives
// encoded is flagged like one the store fell back on itself — so the
// next PutVec of the key skips the AVR attempt.
func TestPutEncodedOverwritesAndFlags(t *testing.T) {
	s := openTest(t, Config{})
	smooth, noise := genVec(t, "wave", 32, 2*BlockValues, 1), genVec(t, "normal", 32, 2*BlockValues, 2)
	if _, err := s.PutVec("k", smooth, nil); err != nil {
		t.Fatal(err)
	}
	res, err := s.PutEncoded("k", containerFor(t, s, noise), nil)
	if err != nil || res.LosslessBlocks != 2 {
		t.Fatalf("encoded noise put: %+v, %v; want 2 lossless blocks", res, err)
	}
	got, _, err := s.GetVec(vec.Vec{}, "k", false, nil)
	if err != nil || !sameBits(got, noise) {
		t.Fatalf("the encoded put did not replace the value exactly (%v)", err)
	}
	if st := s.Stats(); st.Keys != 1 || st.FlaggedBlocks != 2 || st.RawBytes != int64(4*noise.Len()) {
		t.Fatalf("after the overwrite: %d keys, %d flagged blocks, %d raw bytes", st.Keys, st.FlaggedBlocks, st.RawBytes)
	}
	before := snapCounters()
	if _, err := s.PutVec("k", noise, nil); err != nil {
		t.Fatal(err)
	}
	if d := snapCounters().since(before); d.skips != 2 {
		t.Fatalf("PutVec after an encoded lossless put skipped %d AVR attempts, want 2", d.skips)
	}
}

// mutateContainer applies fn to a copy of c.
func mutateContainer(c []byte, fn func(b []byte) []byte) []byte {
	return fn(append([]byte{}, c...))
}

// TestPutEncodedRejects walks the checks: every malformed container is
// ErrBadContainer, another t1 is ErrT1Mismatch, and neither leaves a
// trace — the key keeps its old value and no segment byte is written.
func TestPutEncodedRejects(t *testing.T) {
	s := openTest(t, Config{})
	old := genVec(t, "ramp", 32, 100, 9)
	if _, err := s.PutVec("k", old, nil); err != nil {
		t.Fatal(err)
	}
	vals := genVec(t, "mixed", 32, 2*BlockValues+7, 3) // AVR and lossless blocks both
	good := containerFor(t, s, vals)
	if _, err := openTest(t, Config{}).PutEncoded("k", good, nil); err != nil {
		t.Fatalf("the unmutated container: %v", err)
	}
	// A count is checked against an AVR stream's own; lossless lines carry
	// none, so there (the 7-value tail) a count is only held to the lines
	// present. smooth's tail is long enough to be worth an AVR stream.
	smooth := containerFor(t, s, genVec(t, "wave", 32, 2*BlockValues+1000, 3))
	const hdr = containerHeaderLen
	block0 := int(binary.LittleEndian.Uint32(good[hdr+1:]))
	cases := []struct {
		name string
		c    []byte
		want error
	}{
		{"empty", nil, ErrBadContainer},
		{"short header", good[:hdr-1], ErrBadContainer},
		{"bad magic", mutateContainer(good, func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadContainer},
		{"version 2", mutateContainer(good, func(b []byte) []byte { b[4] = 2; return b }), ErrBadContainer},
		{"width 16", mutateContainer(good, func(b []byte) []byte { b[5] = 16; return b }), ErrBadContainer},
		{"other width", mutateContainer(good, func(b []byte) []byte { b[5] = 64; return b }), ErrBadContainer},
		{"zero values", mutateContainer(good, func(b []byte) []byte { clear(b[14:22]); return b }), ErrBadContainer},
		{"one value more", mutateContainer(smooth, func(b []byte) []byte { b[14]++; return b }), ErrBadContainer},
		{"one value fewer", mutateContainer(smooth, func(b []byte) []byte { b[14]--; return b }), ErrBadContainer},
		{"a lossless line more", mutateContainer(good, func(b []byte) []byte { b[14] += 16; return b }), ErrBadContainer},
		{"a block more", mutateContainer(good, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[14:], 3*BlockValues+7)
			return b
		}), ErrBadContainer},
		{"2^63 values", mutateContainer(good, func(b []byte) []byte { b[21] = 0x80; return b }), ErrBadContainer},
		{"encoding 2", mutateContainer(good, func(b []byte) []byte { b[hdr] = 2; return b }), ErrBadContainer},
		{"encodings swapped", mutateContainer(good, func(b []byte) []byte { b[hdr] ^= 1; return b }), ErrBadContainer},
		{"block length past the end", mutateContainer(good, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[hdr+1:], uint32(len(b)))
			return b
		}), ErrBadContainer},
		{"block shorter than said", mutateContainer(good, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[hdr+1:], uint32(block0-64))
			return b
		}), ErrBadContainer},
		{"truncated", good[:len(good)-1], ErrBadContainer},
		{"trailing byte", append(append([]byte{}, good...), 0), ErrBadContainer},
		{"block over a frame", func() []byte {
			// One lossless "block" of raw lines, long past the frame cap.
			b := append([]byte{}, good[:hdr]...)
			binary.LittleEndian.PutUint64(b[14:], BlockValues)
			b = append(b, encLossless, 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(b[hdr+1:], uint32(maxFramePayload))
			return append(b, make([]byte, maxFramePayload)...)
		}(), ErrBadContainer},
		{"another t1", mutateContainer(good, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[6:], math.Float64bits(s.T1()*2))
			return b
		}), ErrT1Mismatch},
		{"t1 NaN", mutateContainer(good, func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[6:], math.Float64bits(math.NaN()))
			return b
		}), ErrT1Mismatch},
	}
	before := s.Stats()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.PutEncoded("k", tc.c, nil); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	if _, err := s.PutEncoded("", good, nil); err == nil || errors.Is(err, ErrBadContainer) {
		t.Errorf("empty key: %v, want the key error PutVec gives", err)
	}
	after := s.Stats()
	if after.DiskBytes != before.DiskBytes || after.LiveBytes != before.LiveBytes || after.Keys != 1 {
		t.Fatalf("rejected containers left a trace: %d keys, %d bytes on disk (%d live), was 1, %d (%d)",
			after.Keys, after.DiskBytes, after.LiveBytes, before.DiskBytes, before.LiveBytes)
	}
	got, _, err := s.GetVec(vec.Vec{}, "k", false, nil)
	if err != nil || got.Len() != old.Len() {
		t.Fatalf("the old value is gone: %d values, %v", got.Len(), err)
	}
}

// TestPutWritesOnce pins the one-write commit at its observable edges: a
// put's frames are contiguous in one segment, in block order, and a tail
// torn anywhere inside the put recovers the intact prefix of its blocks.
func TestPutWritesOnce(t *testing.T) {
	fs := newMemFS(1)
	s := openTest(t, Config{Dir: "d", fs: fs})
	vals := genVec(t, "wave", 32, 4*BlockValues, 5)
	if _, err := s.PutVec("k", vals, nil); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	refs := slices.Clone(s.index["k"].refs)
	s.mu.RUnlock()
	for i := 1; i < len(refs); i++ {
		if refs[i].seg != refs[0].seg || refs[i].off != refs[i-1].off+refs[i-1].frameLen {
			t.Fatalf("block %d at %d/%d does not follow block %d (%d/%d + %d)", i,
				refs[i].seg, refs[i].off, i-1, refs[i-1].seg, refs[i-1].off, refs[i-1].frameLen)
		}
	}
	// The same put again, torn in the middle of its third frame.
	fs.hook = cutWrite(tearInFrame(2))
	if _, err := s.PutVec("k", vals, nil); !errors.Is(err, errCut) {
		t.Fatalf("put on a dying disk: %v", err)
	}
	re := openTest(t, Config{Dir: "d", fs: fs.crash(processKill, 1)})
	got, _, err := re.GetVec(vec.Vec{}, "k", false, nil)
	if !errors.Is(err, ErrIncomplete) || got.Len() != 2*BlockValues {
		t.Fatalf("after the tear: %d values, %v; want the first two blocks and ErrIncomplete", got.Len(), err)
	}
}

// TestGetEncodedRoundTrip is the read direction's property: a key's
// container (GetEncoded) decodes to exactly what GetVec reads, bit for
// bit (DecodeContainer), and put back into a store at the same t1
// (PutEncoded) commits the same blocks byte for byte — that store's own
// GetEncoded answers the same container. Over both widths, a lossless
// key, a key whose line is resident in the cache, and a torn tail, whose
// container is its recovered prefix beside ErrIncomplete.
func TestGetEncodedRoundTrip(t *testing.T) {
	fs := newMemFS(1)
	s := openTest(t, Config{Dir: "d", fs: fs})
	for key, vals := range map[string]vec.Vec{
		"fp32":   genVec(t, "heat", 32, 3*BlockValues+100, 1),
		"fp64":   genVec(t, "wave", 64, 2*BlockValues+7, 2),
		"noise":  genVec(t, "normal", 32, 2*BlockValues, 3),
		"cached": genVec(t, "ramp", 32, BlockValues+1, 4),
	} {
		if _, err := s.PutVec(key, vals, nil); err != nil {
			t.Fatal(err)
		}
	}
	fs.hook = cutWrite(tearInFrame(2))
	if _, err := s.PutVec("torn", genVec(t, "wave", 32, 4*BlockValues, 5), nil); !errors.Is(err, errCut) {
		t.Fatalf("put on a dying disk: %v", err)
	}
	re := openTest(t, Config{Dir: "d", fs: fs.crash(processKill, 1), CacheBytes: 64 << 20})
	if _, _, err := re.GetVec(vec.Vec{}, "cached", true, nil); err != nil || !re.cache.Contains("cached") {
		t.Fatalf("setup: the cached key's line is not resident (%v)", err)
	}
	if infos, _ := re.BlockInfos("noise"); len(infos) != 2 || !infos[0].Lossless || !infos[1].Lossless {
		t.Fatalf("setup: the noise key is not stored losslessly: %+v", infos)
	}
	other := openTest(t, Config{})
	for _, key := range []string{"fp32", "fp64", "noise", "cached", "torn"} {
		want, _, werr := re.GetVec(vec.Vec{}, key, false, nil)
		c, width, n, err := re.GetEncoded(nil, key, nil)
		if torn := key == "torn"; err != werr || errors.Is(err, ErrIncomplete) != torn || (torn && n != 2*BlockValues) {
			t.Fatalf("%s: GetEncoded says %v for %d values, GetVec %v", key, err, n, werr)
		}
		if width != want.Width || n != want.Len() {
			t.Fatalf("%s: GetEncoded reports fp%d x %d, GetVec reads fp%d x %d", key, width, n, want.Width, want.Len())
		}
		if got, err := DecodeContainer(vec.Vec{}, c); err != nil || !sameBits(got, want) {
			t.Fatalf("%s: the container decodes to other values than GetVec reads (%v)", key, err)
		}
		if _, err := other.PutEncoded(key, c, nil); err != nil {
			t.Fatalf("%s: putting the container back: %v", key, err)
		}
		if back, _, _, err := other.GetEncoded(nil, key, nil); err != nil || !bytes.Equal(back, c) {
			t.Fatalf("%s: put back, the key reads as another container (%v)", key, err)
		}
	}
	if _, _, _, err := re.GetEncoded(nil, "absent", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v", err)
	}
}

// TestGetEncodedAfterRetryAtNewT1: a lossless block the compactor
// re-framed after a reopen at another t1 carries that t1 beside an AVR
// block still at the one it was written at. The key's container claims
// the larger — the bound every one of its values is within — and still
// decodes to what GetVec reads.
func TestGetEncodedAfterRetryAtNewT1(t *testing.T) {
	const wrote, reopened = 1.0 / 8, 1.0 / 1024
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir, T1: wrote})
	vals := vec.Of32(append(genF32(t, "wave", BlockValues, 1), genF32(t, "normal", BlockValues, 2)...))
	if _, err := s.PutVec("k", vals, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // dead weight beside k, for compaction to reclaim
		if _, err := s.PutVec("filler", vals, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, Config{Dir: dir, T1: reopened})
	compactAll(t, r)
	infos, err := r.BlockInfos("k")
	if err != nil || len(infos) != 2 || infos[0].T1 != wrote || infos[1].T1 != reopened || !infos[1].Lossless {
		t.Fatalf("setup: k's blocks after the pass are %+v (%v), want AVR at %g and lossless at %g", infos, err, wrote, reopened)
	}
	c, _, _, err := r.GetEncoded(nil, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(c[6:])); got != wrote {
		t.Fatalf("the container claims t1 %g, want the larger of its blocks', %g", got, wrote)
	}
	want, _, _ := r.GetVec(vec.Vec{}, "k", false, nil)
	if got, err := DecodeContainer(vec.Vec{}, c); err != nil || !sameBits(got, want) {
		t.Fatalf("the container decodes to other values than GetVec reads (%v)", err)
	}
}

// FuzzPutEncoded throws arbitrary bytes and mutated valid containers at
// PutEncoded and DecodeContainer. Neither may panic. DecodeContainer
// takes exactly what openContainer — PutEncoded's check of the layout
// and the blocks — takes at the header's t1, and nothing but
// ErrBadContainer refuses. A refusal of PutEncoded must be one of its two
// documented errors and leave the key as it was, whole; and whatever it
// accepts must read back — through the get path, the cache fill and all
// three queries — without a complaint, with the value count the
// container claimed and the values DecodeContainer rebuilt.
func FuzzPutEncoded(f *testing.F) {
	seed := func(dist string, width, n int) []byte {
		c, err := NewEncoder(1.0/32).AppendPut(nil, genVec(f, dist, width, n, 1))
		if err != nil {
			f.Fatal(err)
		}
		return c
	}
	for _, width := range []int{32, 64} {
		f.Add(seed("wave", width, 300))
		f.Add(seed("normal", width, 40))
		f.Add(seed("wave", width, BlockValues+5)) // two blocks, the second a lossless tail
	}
	f.Add([]byte(containerMagic))
	f.Add([]byte{})

	s, err := Open(Config{Dir: f.TempDir(), CacheBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	old := vec.Of32([]float32{1, 2, 3})
	var ps putScratch
	f.Fuzz(func(t *testing.T, container []byte) {
		decoded, derr := DecodeContainer(vec.Vec{}, container)
		var t1 float64 // the header's, for openContainer's t1 check to pass
		if len(container) >= containerHeaderLen {
			t1 = math.Float64frombits(binary.LittleEndian.Uint64(container[6:]))
		}
		if _, oerr := openContainer(container, t1, &ps); (derr == nil) != (oerr == nil) {
			t.Fatalf("DecodeContainer says %v, openContainer at the header's t1 %v", derr, oerr)
		}
		if derr != nil && !errors.Is(derr, ErrBadContainer) {
			t.Fatalf("DecodeContainer refuses with %v", derr)
		}
		if _, err := s.PutVec("k", old, nil); err != nil {
			t.Fatal(err)
		}
		res, err := s.PutEncoded("k", container, nil)
		got, _, gerr := s.GetVec(vec.Vec{}, "k", false, nil)
		if err != nil {
			if !errors.Is(err, ErrBadContainer) && !errors.Is(err, ErrT1Mismatch) {
				t.Fatalf("undocumented refusal: %v", err)
			}
			if gerr != nil || !sameBits(got, old) {
				t.Fatalf("a refused container touched the key: %d values, %v", got.Len(), gerr)
			}
			return
		}
		claimed := int(binary.LittleEndian.Uint64(container[14:]))
		if gerr != nil || got.Len() != claimed || res.Values != claimed {
			t.Fatalf("accepted %d values, reads back %d (%v)", claimed, got.Len(), gerr)
		}
		if !sameBits(got, decoded) {
			t.Fatal("the store reads back other values than DecodeContainer rebuilt")
		}
		s.mu.RLock()
		_, lerr := s.buildLineLocked("k", s.index["k"])
		s.mu.RUnlock()
		if lerr != nil {
			t.Fatalf("cache fill of an accepted container: %v", lerr)
		}
		if _, err := s.QueryAggregateTraced("k", nil); err != nil {
			t.Fatalf("aggregate over an accepted container: %v", err)
		}
		if _, err := s.QueryFilterTraced("k", -1, 1, nil); err != nil {
			t.Fatalf("filter over an accepted container: %v", err)
		}
		if _, err := s.QueryDownsampleTraced("k", nil); err != nil {
			t.Fatalf("downsample over an accepted container: %v", err)
		}
	})
}
