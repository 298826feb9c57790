package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"avr/internal/vec"
)

// TestPowerCutAnywhere is DESIGN.md §5.9 as a test. A seeded schedule of
// puts, overwrites, deletes, compaction passes and reopens (segments of
// 2 KiB, so it rolls every few puts) runs on the model disk of
// memfs_test.go once per I/O call it makes (a read straight after a read
// aside: nothing happened in between), dying at that call; what the
// disk holds is then crashed both ways — a process kill and a power cut —
// and on each of the two disks:
//
//   - Open succeeds;
//   - every key reads within the store's t1 of a write not older than the
//     last one that was acknowledged durably — under a process kill or
//     SyncEveryPut any acknowledged write, else one an fsync followed — or
//     reads as an ErrIncomplete prefix of a newer put than that; a delete
//     is a write, so a key durably deleted stays gone;
//   - the store takes writes, compacts, and after a Close opens again with
//     every key as it was: in every other run with segments of one byte,
//     which seals the recovered tail where it stands, so that anything
//     recovery left behind in it would sit in the middle of the directory.
//
// It keeps the most acknowledged writes any crash lost, per sync policy
// and kind of crash, and holds that at zero wherever the statement says
// zero. A failure names its seed (-run 'TestPowerCutAnywhere/seed=N'
// replays it alone), the policy, the kind of crash and the call, and
// prints the schedule and the I/O up to the cut.
func TestPowerCutAnywhere(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	tally := cutTally{lost: map[bool]map[crashKind]int{true: {}, false: {}}}
	for name, sched := range namedSchedules {
		t.Run("schedule="+name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ { // of the crashes: the schedule is fixed
				cutEverywhere(t, seed, sched, &tally)
			}
		})
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cutEverywhere(t, int64(seed), genSchedule(int64(seed)), &tally)
		})
	}
	t.Logf("%d crashes checked; %d read as an ErrIncomplete prefix, %d lossless blocks written, %d unlinked segments back after a power cut",
		tally.crashes, tally.loud, tally.lossless, tally.resurrected)
	for _, sync := range []bool{true, false} {
		for _, kind := range []crashKind{processKill, powerCut} {
			t.Logf("SyncEveryPut=%-5v %-12v worst case %d acknowledged writes lost (of up to %d acknowledged)",
				sync, kind, tally.lost[sync][kind], tally.acked)
			if (sync || kind == processKill) && tally.lost[sync][kind] != 0 {
				t.Errorf("SyncEveryPut=%v, %v: %d acknowledged writes lost, want 0", sync, kind, tally.lost[sync][kind])
			}
		}
	}
	if !t.Failed() && (tally.loud == 0 || tally.lossless == 0 || tally.resurrected == 0 || tally.lost[false][powerCut] == 0) {
		t.Errorf("the schedules never reached a case the statement covers: %+v", tally)
	}
}

// cutTally is what the whole test saw.
type cutTally struct {
	crashes, loud, lossless, resurrected, acked int
	lost                                        map[bool]map[crashKind]int // [SyncEveryPut][kind] → worst case
}

// cutKeys are the keys a schedule writes: both widths, one long enough
// for a torn put to leave a prefix, and noise, which the ratio floor sends
// to the lossless fallback, flagged.
var cutKeys = []struct {
	name     string
	width, n int
	noise    bool
}{
	{"a", 32, 300, false},
	{"b", 64, 250, false},
	{"long", 32, 2*BlockValues + 77, false},
	{"noise", 32, 160, true},
	{"noise64", 64, 90, true},
}

// cutValues is version ver of key k's value. Versions of a smooth key are
// a factor 1.5 apart and noise never repeats, so a read matches one
// version at most.
func cutValues(k, ver int) vec.Vec {
	if v, ok := cutValuesMemo[[2]int{k, ver}]; ok {
		return v
	}
	spec := cutKeys[k]
	base := 100 * math.Pow(1.5, float64(ver))
	rng := rand.New(rand.NewSource(int64(1000*k + ver)))
	f := make([]float64, spec.n)
	for i := range f {
		if f[i] = base + 0.001*float64(i); spec.noise {
			f[i] = base * (1 + rng.Float64())
		}
	}
	v := vec.Of64(f)
	if spec.width == 32 {
		f32 := make([]float32, len(f))
		for i, x := range f {
			f32[i] = float32(x)
		}
		v = vec.Of32(f32)
	}
	cutValuesMemo[[2]int{k, ver}] = v
	return v
}

// cutValuesMemo: the values depend on nothing else, and every run of
// every seed asks again.
var cutValuesMemo = map[[2]int]vec.Vec{}

// cutOp is one step of a schedule.
type cutOp struct {
	kind string // put, delete, compact, reopen
	key  int    // put, delete: index into cutKeys
	ver  int    // put: which version
}

func (op cutOp) String() string {
	switch op.kind {
	case "put":
		return fmt.Sprintf("put %s v%d", cutKeys[op.key].name, op.ver)
	case "delete":
		return "delete " + cutKeys[op.key].name
	}
	return op.kind
}

// genSchedule draws a schedule: mostly puts over few keys, so most are
// overwrites and segments fragment, with deletes of keys that are there,
// compaction passes and reopens in between.
func genSchedule(seed int64) []cutOp {
	rng := rand.New(rand.NewSource(seed))
	vers := make([]int, len(cutKeys))
	there := make([]bool, len(cutKeys))
	sched := make([]cutOp, 0, 14)
	for len(sched) < cap(sched) {
		k := rng.Intn(len(cutKeys))
		switch p := rng.Intn(100); {
		case p < 12 && there[k]:
			sched = append(sched, cutOp{kind: "delete", key: k})
			there[k] = false
		case p < 30:
			sched = append(sched, cutOp{kind: "compact"})
		case p < 38:
			sched = append(sched, cutOp{kind: "reopen"})
		default:
			sched = append(sched, cutOp{kind: "put", key: k, ver: vers[k]})
			vers[k]++
			there[k] = true
		}
	}
	return sched
}

// namedSchedules pin cases the seeds reach only by luck.
var namedSchedules = map[string][]cutOp{
	// What TestCompactionSyncsBeforeUnlink used to watch the fsyncs for:
	// segment 1 is sealed (and so synced) holding a v0 and long v0, both are
	// overwritten in segment 2, which no fsync has touched when the pass
	// finds segment 1 all dead. Unlinked before segment 2 is synced, a
	// power cut there leaves neither version of a.
	"unlink-follows-sync": {
		{kind: "put", key: 0, ver: 0}, {kind: "put", key: 2, ver: 0},
		{kind: "put", key: 0, ver: 1}, {kind: "put", key: 2, ver: 1},
		{kind: "compact"}, {kind: "put", key: 0, ver: 2},
	},
}

// cutVersion is one write of a key, in order; the first is the absence
// the key starts from.
type cutVersion struct {
	put   bool
	vals  vec.Vec
	acked bool
	syncs int // file Syncs complete when it was acknowledged
}

// cutRun is one execution of a schedule: the disk it ran on and what it
// was told.
type cutRun struct {
	fs       *memFS
	cfg      Config
	hist     [][]cutVersion // by key
	ops      []string       // the schedule as far as it got, with outcomes
	acked    int
	lossless int
}

// runSchedule runs sched on a fresh disk that dies at call number cut
// (never, if negative), and stops where it does.
func runSchedule(t *testing.T, seed int64, sched []cutOp, syncEvery bool, cut int) *cutRun {
	t.Helper()
	r := &cutRun{fs: newMemFS(seed), hist: make([][]cutVersion, len(cutKeys))}
	r.fs.hook = func(c *ioCall) error {
		if c.index == cut {
			return errCut
		}
		return nil
	}
	r.cfg = Config{Dir: "d", SegmentTargetBytes: 2 << 10, minDeadFraction: 0.05, SyncEveryPut: syncEvery, fs: r.fs}
	for k := range r.hist {
		r.hist[k] = []cutVersion{{acked: true, syncs: -1}}
	}
	s, err := Open(r.cfg)
	for _, op := range sched {
		if err != nil {
			break
		}
		switch op.kind {
		case "put":
			vals := cutValues(op.key, op.ver)
			r.hist[op.key] = append(r.hist[op.key], cutVersion{put: true, vals: vals})
			var res PutResult
			res, err = s.PutVec(cutKeys[op.key].name, vals, nil)
			r.lossless += res.LosslessBlocks
		case "delete":
			r.hist[op.key] = append(r.hist[op.key], cutVersion{})
			err = s.Delete(cutKeys[op.key].name)
		case "compact":
			_, _, err = s.CompactOnce()
		case "reopen":
			if err = s.Close(); err == nil {
				s, err = Open(r.cfg)
			}
		}
		if err != nil {
			r.ops = append(r.ops, fmt.Sprintf("%v: %v", op, err))
			break
		}
		r.ops = append(r.ops, op.String()+": ok")
		if op.kind == "put" || op.kind == "delete" {
			v := &r.hist[op.key][len(r.hist[op.key])-1]
			v.acked, v.syncs = true, r.fs.syncs
			r.acked++
		}
	}
	if err != nil && !errors.Is(err, errCut) {
		t.Fatalf("cut at call %d: the schedule failed on its own: %v\n%s", cut, err, strings.Join(r.ops, "\n"))
	}
	if s != nil {
		s.Close() // on a dead disk: frees the handles, changes nothing
	}
	return r
}

// cutEverywhere runs sched under both sync policies with the cut at
// every call in turn, and checks both crashes of each.
func cutEverywhere(t *testing.T, seed int64, sched []cutOp, tally *cutTally) {
	for _, syncEvery := range []bool{true, false} {
		whole := runSchedule(t, seed, sched, syncEvery, -1)
		calls := whole.fs.calls
		tally.acked = max(tally.acked, whole.acked)
		tally.lossless += whole.lossless
		// The cut after the last call is the whole schedule, unclosed.
		for cut := 0; cut <= len(calls); cut++ {
			if cut > 0 && cut < len(calls) && !calls[cut].mutates() && !calls[cut-1].mutates() {
				continue // a read after a read: the same disk, the same acknowledgements
			}
			r := whole
			if cut < len(calls) {
				r = runSchedule(t, seed, sched, syncEvery, cut)
			}
			for _, kind := range []crashKind{processKill, powerCut} {
				img := r.fs.crash(kind, seed<<20+int64(cut))
				tally.crashes++
				tally.resurrected += img.resurrected
				lost, loud, err := r.checkCrash(img, kind, cut%2 == 1)
				if err != nil {
					t.Fatalf("seed %d, SyncEveryPut=%v, %v at call %d: %v\nschedule:\n  %s\nI/O:\n%s",
						seed, syncEvery, kind, cut, err, strings.Join(r.ops, "\n  "), r.fs.log())
				}
				tally.loud += loud
				tally.lost[syncEvery][kind] = max(tally.lost[syncEvery][kind], lost)
			}
		}
	}
}

// reading is what a Get of one key came back with.
type reading struct {
	vals vec.Vec
	err  error
}

// readAll gets every schedule key from disk.
func readAll(s *Store) []reading {
	out := make([]reading, len(cutKeys))
	for k, spec := range cutKeys {
		out[k].vals, _, out[k].err = s.GetVec(vec.Vec{}, spec.name, false, nil)
	}
	return out
}

// equal reports whether two readings are the same bits or the same
// failure.
func (a reading) equal(b reading) bool {
	if (a.err == nil) != (b.err == nil) || (a.err != nil && a.err.Error() != b.err.Error()) {
		return false
	}
	return a.vals.Width == b.vals.Width && a.vals.Len() == b.vals.Len() && a.within(b.vals, 0)
}

// within reports whether what was read is a prefix of want within t1.
func (a reading) within(want vec.Vec, t1 float64) bool {
	if a.vals.Width != want.Width || a.vals.Len() > want.Len() {
		return false
	}
	for i := 0; i < a.vals.Len(); i++ {
		got, w := float64(0), float64(0)
		if want.Width == 64 {
			got, w = a.vals.F64[i], want.F64[i]
		} else {
			got, w = float64(a.vals.F32[i]), float64(want.F32[i])
		}
		if !withinT1(got, w, t1) {
			return false
		}
	}
	return true
}

// checkCrash opens the store on img, the disk a crash of the given kind
// left of r, and holds it to the statement. It returns how many
// acknowledged writes the crash lost and how many keys read as a torn
// prefix.
func (r *cutRun) checkCrash(img *memFS, kind crashKind, sealTail bool) (lost, loud int, err error) {
	cfg := r.cfg
	cfg.fs = img
	s, err := Open(cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("Open after the crash: %w", err)
	}
	defer func() {
		if s != nil {
			s.Close()
		}
	}()
	first := readAll(s)
	for k, got := range first {
		hist := r.hist[k]
		floor := 0 // the last write that was acknowledged durably
		for i, v := range hist {
			if v.acked && (kind == processKill || r.cfg.SyncEveryPut || v.syncs < r.fs.syncs) {
				floor = i
			}
		}
		is := -1 // the write the key reads as
		for i := len(hist) - 1; i >= floor && is < 0; i-- {
			v := hist[i]
			switch {
			case !v.put && errors.Is(got.err, ErrNotFound),
				v.put && got.err == nil && got.vals.Len() == v.vals.Len() && got.within(v.vals, s.T1()):
				is = i
			case v.put && i > floor && errors.Is(got.err, ErrIncomplete) && got.vals.Len() < v.vals.Len() && got.within(v.vals, s.T1()):
				is = i - 1 // loud: it says it is not the whole of write i
				loud++
			}
		}
		if is < 0 {
			return 0, 0, fmt.Errorf("key %s reads as %d values, err %v: no write from #%d (the last durably acknowledged) to #%d of its %d",
				cutKeys[k].name, got.vals.Len(), got.err, floor, len(hist)-1, len(hist)-1)
		}
		for _, v := range hist[is+1:] {
			if v.acked {
				lost++
			}
		}
	}

	// The recovered store is a store: it takes writes and compacts.
	if sealTail {
		s.Close()
		sealing := cfg
		sealing.SegmentTargetBytes = 1
		if s, err = Open(sealing); err != nil {
			return 0, 0, fmt.Errorf("Open, to seal the tail: %w", err)
		}
	}
	after := cutValues(3, 99)
	for i := 0; i < 2; i++ {
		if _, err := s.PutVec("after", after, nil); err != nil {
			return 0, 0, fmt.Errorf("put after recovery: %w", err)
		}
	}
	if _, _, err := s.CompactOnce(); err != nil {
		return 0, 0, fmt.Errorf("compaction after recovery: %w", err)
	}
	if err := s.Close(); err != nil {
		return 0, 0, fmt.Errorf("Close after recovery: %w", err)
	}
	if s, err = Open(cfg); err != nil {
		return 0, 0, fmt.Errorf("second Open: %w", err)
	}
	for k, got := range readAll(s) {
		if !got.equal(first[k]) {
			return 0, 0, fmt.Errorf("key %s changed over a Close and an Open: %d values, err %v; was %d values, err %v",
				cutKeys[k].name, got.vals.Len(), got.err, first[k].vals.Len(), first[k].err)
		}
	}
	if got, _, err := s.GetVec(vec.Vec{}, "after", false, nil); err != nil || !(reading{vals: got}).equal(reading{vals: after}) {
		return 0, 0, fmt.Errorf("the put after recovery reads as %d values, err %v", got.Len(), err)
	}
	return lost, loud, nil
}
