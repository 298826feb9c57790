package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"avr"
	"avr/internal/vec"
)

// TestGetSameOnAdjacentAndScatteredFrames holds the two ways readLocked
// fetches a key's frames to one behaviour. A put lands its frames back
// to back and they are read with one pread; compaction can move them
// apart, and then each is read alone. The scattered layout here has
// both: block 0 alone, blocks 1-2 as a run, block 3 alone. The same
// values, the same errors naming the same block, and the same recovered
// prefix must come back from either — through the disk path, the
// cache-filling miss, the hit after it, the prefetcher's line build, and
// the three queries, which must also answer identically.
func TestGetSameOnAdjacentAndScatteredFrames(t *testing.T) {
	const total = 3*BlockValues + 1000
	vals := genF32(t, "heat", total, 5)
	noise := genF32(t, "normal", BlockValues, 6)
	copy(vals[BlockValues:], noise) // block 1 is stored lossless
	codec := avr.NewCodec(0)
	blockRecs := func(damage func(i int, data []byte) []byte) []*record {
		var recs []*record
		for i := 0; i*BlockValues < total; i++ {
			chunk := vals[i*BlockValues : min((i+1)*BlockValues, total)]
			rec := &record{
				Kind: recordBlock, Seq: 7, Key: "k", BlockIdx: uint32(i),
				TotalVals: total, Width: 32, Enc: encAVR, ValCount: uint32(len(chunk)), T1: 1.0 / 32,
			}
			if i == 1 {
				rec.Enc, rec.Data = encLossless, appendLossless(nil, vec.Of32(chunk))
			} else {
				var err error
				if rec.Data, err = codec.Encode(chunk); err != nil {
					t.Fatal(err)
				}
			}
			if damage != nil {
				rec.Data = damage(i, rec.Data)
			}
			recs = append(recs, rec)
		}
		return recs
	}
	other := func(seq uint64) *record {
		return &record{
			Kind: recordBlock, Seq: seq, Key: "other", BlockIdx: 0, TotalVals: 16,
			Width: 32, Enc: encLossless, ValCount: 16, T1: 1.0 / 32,
			Data: appendLossless(nil, vec.Of32(vals[:16])),
		}
	}
	layouts := map[string]func(k []*record) []*record{
		"adjacent":  func(k []*record) []*record { return k },
		"scattered": func(k []*record) []*record { return []*record{k[0], other(1), k[1], k[2], other(2), k[3]} },
	}
	// open writes recs as segment 1, applies tamper to the file image
	// (given where k's frames start), and opens a store over it.
	open := func(t *testing.T, recs []*record, tamper func(img []byte, kOff []int) []byte, after func(path string, kOff []int)) *Store {
		t.Helper()
		img := segmentHeader()
		var kOff []int
		for _, r := range recs {
			if r.Key == "k" {
				kOff = append(kOff, len(img))
			}
			img = appendFrame(img, r)
		}
		if tamper != nil {
			img = tamper(img, kOff)
		}
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), img, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, Config{Dir: dir, CacheBytes: 8 << 20})
		if after != nil {
			after(segPath(dir, 1), kOff)
		}
		return s
	}
	// outcome is everything a reader can observe of one key on one path:
	// the values read back, or for a query its whole answer.
	type outcome struct {
		path     string
		vals     []float32
		query    bool
		answer   string
		count    int64 // values covered (downsample: points, one per 16)
		complete bool
		err      string
	}
	observe := func(t *testing.T, s *Store) []outcome {
		t.Helper()
		var out []outcome
		add := func(path string, v vec.Vec, err error) {
			o := outcome{path: path, vals: slices.Clone(v.F32)}
			if err != nil {
				o.err = err.Error()
			}
			out = append(out, o)
		}
		passed := vec.Of32(make([]float32, 2, 8))
		disk, _, err := s.GetVec(passed, "k", false, nil)
		add("disk", disk, err)
		if err != nil && !errors.Is(err, ErrIncomplete) && (len(disk.F32) != 2 || cap(disk.F32) != 8) {
			t.Errorf("failed disk read returned %d/%d values, not dst as passed", len(disk.F32), cap(disk.F32))
		}
		s.mu.RLock()
		ln, err := s.buildLineLocked("k", s.index["k"])
		s.mu.RUnlock()
		built := vec.Of32(make([]float32, 2, 8))
		if err == nil {
			built = s.serveFromLine(built, ln)
			if !ln.complete {
				err = ErrIncomplete
			}
		}
		add("line", built, err)
		miss, src, err := s.GetVec(vec.Of32(make([]float32, 2, 8)), "k", true, nil)
		if src != CacheMiss {
			t.Errorf("cold cached read served as %q, want miss", src)
		}
		add("miss", miss, err)
		if err == nil || errors.Is(err, ErrIncomplete) {
			hit, src, err := s.GetVec(vec.Of32(make([]float32, 2, 8)), "k", true, nil)
			if src != CacheHit {
				t.Errorf("read after a filling miss served as %q, want hit", src)
			}
			add("hit", hit, err)
		} else if s.cache.Contains("k") {
			t.Errorf("a failed miss left a line resident")
		}
		addQuery := func(path string, answer any, qs QueryStats, count int64, err error) {
			o := outcome{path: path, query: true, count: count}
			if err != nil {
				o.err = err.Error()
			} else {
				o.answer, o.complete = fmt.Sprintf("%+v", answer), qs.Complete
			}
			out = append(out, o)
		}
		agg, err := s.QueryAggregateTraced("k", nil)
		addQuery("aggregate", agg, agg.QueryStats, agg.Count, err)
		fil, err := s.QueryFilterTraced("k", -math.MaxFloat64, math.MaxFloat64, nil)
		addQuery("filter", fil, fil.QueryStats, fil.MatchesMax, err)
		ds, err := s.QueryDownsampleTraced("k", nil)
		addQuery("downsample", ds, ds.QueryStats, int64(len(ds.Points)), err)
		return out
	}

	scenarios := []struct {
		name    string
		damage  func(i int, data []byte) []byte
		tamper  func(img []byte, kOff []int) []byte
		after   func(path string, kOff []int)
		wantErr error
		wantLen int    // values read back, after dst's own two
		names   string // what every error must name
	}{
		{name: "intact", wantLen: total},
		{
			name: "CRC-valid damage in block 2",
			damage: func(i int, data []byte) []byte {
				if i == 2 {
					return data[:len(data)-40]
				}
				return data
			},
			wantErr: ErrCorrupt, names: "block 2",
		},
		{
			name: "bit flip under an open store in block 2",
			// Lands in the first record's summary line: a different value,
			// nothing a stream parser can object to. Only the CRC sees it.
			after: func(path string, kOff []int) {
				flipFileBit(t, path, int64(kOff[2]+frameHeaderLen+100), 0x40)
			},
			wantErr: ErrCorrupt, names: "block 2",
		},
		{
			name:    "torn inside block 3",
			tamper:  func(img []byte, kOff []int) []byte { return img[:kOff[3]+50] },
			wantErr: ErrIncomplete, wantLen: 3 * BlockValues,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			seen := map[string][]outcome{}
			for name, lay := range layouts {
				s := open(t, lay(blockRecs(sc.damage)), sc.tamper, sc.after)
				seen[name] = observe(t, s)
			}
			adj, sca := seen["adjacent"], seen["scattered"]
			if len(adj) != len(sca) {
				t.Fatalf("adjacent layout observed %d paths, scattered %d", len(adj), len(sca))
			}
			for i, a := range adj {
				b := sca[i]
				if a.err != b.err {
					t.Errorf("%s: adjacent err %q, scattered err %q", a.path, a.err, b.err)
				}
				if a.query {
					// A query answers over a torn vector's prefix without an
					// error, marked incomplete; everything else fails like Get.
					switch {
					case a.answer != b.answer:
						t.Errorf("%s: the two layouts answer differently:\n%s\n%s", a.path, a.answer, b.answer)
					case sc.wantErr == nil || sc.wantErr == ErrIncomplete:
						want := int64(sc.wantLen) // what Get read
						if a.path == "downsample" {
							want = (want + 15) / 16
						}
						if a.err != "" {
							t.Errorf("%s: %s", a.path, a.err)
						} else if a.complete != (sc.wantErr == nil) || a.count != want {
							t.Errorf("%s: complete=%v, covers %d, want %v and %d",
								a.path, a.complete, a.count, sc.wantErr == nil, want)
						}
					case a.err != adj[0].err:
						t.Errorf("%s: err %q, Get's is %q", a.path, a.err, adj[0].err)
					}
					continue
				}
				if !equalBits32(a.vals, b.vals) {
					t.Errorf("%s: the two layouts read different values (%d vs %d)", a.path, len(a.vals), len(b.vals))
				}
				if !equalBits32(a.vals, adj[0].vals) {
					t.Errorf("%s read differs from the disk read (%d vs %d values)", a.path, len(a.vals), len(adj[0].vals))
				}
				switch {
				case sc.wantErr == nil && a.err != "":
					t.Errorf("%s: %s", a.path, a.err)
				case sc.wantErr != nil && !strings.Contains(a.err, sc.wantErr.Error()):
					t.Errorf("%s: err %q, want %v", a.path, a.err, sc.wantErr)
				case !strings.Contains(a.err, sc.names):
					t.Errorf("%s: err %q does not name %s", a.path, a.err, sc.names)
				}
				if want := 2 + sc.wantLen; len(a.vals) != want {
					t.Errorf("%s: %d values came back, want %d", a.path, len(a.vals), want)
				}
			}
			if sc.wantErr == nil {
				// Lossless block exact, the rest what the codec decodes to.
				got := adj[0].vals[2:]
				if !equalBits32(got[BlockValues:2*BlockValues], vals[BlockValues:2*BlockValues]) {
					t.Error("lossless block did not read back exactly")
				}
				want, err := codec.Decode(blockRecs(nil)[3].Data)
				if err != nil {
					t.Fatal(err)
				}
				if !equalBits32(got[3*BlockValues:], want) {
					t.Error("last block differs from the codec's own decode")
				}
			}
		})
	}
}

// flipFileBit XORs mask into the byte at off of the file at path — damage
// done behind the back of a store that has the file open.
func flipFileBit(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func equalBits32(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
