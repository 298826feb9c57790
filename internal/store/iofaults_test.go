package store

import (
	"errors"
	"io"
	"strings"
	"testing"

	"avr/internal/obs"
	"avr/internal/vec"
)

// failOnce is a hook that fails the first call of the given kind, landing
// half of it first if it is a write and half is set.
func failOnce(op string, err error, half bool) func(*ioCall) error {
	done := false
	return func(c *ioCall) error {
		if done || c.op != op {
			return nil
		}
		if done = true; half {
			c.keep = c.n / 2
		}
		return err
	}
}

// faultBed is what a TestIOFaults case works on: a store on a model disk
// with 2 KiB segments, holding key a at version 0.
type faultBed struct {
	t   *testing.T
	fs  *memFS
	cfg Config
	s   *Store
}

func (b *faultBed) put(k, ver int) error {
	_, err := b.s.PutVec(cutKeys[k].name, cutValues(k, ver), nil)
	return err
}

// mustPut is put where the disk is in order.
func (b *faultBed) mustPut(k, ver int) {
	b.t.Helper()
	if err := b.put(k, ver); err != nil {
		b.t.Fatal(err)
	}
}

// reads checks that key k reads as version ver.
func (b *faultBed) reads(k, ver int) {
	b.t.Helper()
	got, _, err := b.s.GetVec(vec.Vec{}, cutKeys[k].name, false, nil)
	if want := cutValues(k, ver); err != nil || got.Len() != want.Len() || !(reading{vals: got}).within(want, b.s.T1()) {
		b.t.Fatalf("key %s: %d values, err %v; want version %d", cutKeys[k].name, got.Len(), err, ver)
	}
}

// reopen closes the store and opens it again, on its disk as it is, with
// every segment sealed by the open when seal is set.
func (b *faultBed) reopen(seal bool) error {
	b.t.Helper()
	if err := b.s.Close(); err != nil {
		b.t.Fatal(err)
	}
	cfg := b.cfg
	if seal {
		cfg.SegmentTargetBytes = 1
	}
	s, err := Open(cfg)
	if err == nil {
		b.s = s
	}
	return err
}

// TestIOFaults is the store's error paths, one row a fault: a call on the
// disk fails once (nothing dies), and the store must fail the operation
// that met it, keep serving what it had, carry on afterwards and leave a
// directory that opens.
func TestIOFaults(t *testing.T) {
	const a, long = 0, 2 // cutKeys
	// A write that fails part way, then a shorter one in its place: the
	// store is as if the first had never been issued, also once the
	// segment is sealed and reopened.
	failedWrite := func(err error) func(t *testing.T, b *faultBed) {
		return func(t *testing.T, b *faultBed) {
			at := b.s.active.size
			b.fs.hook = failOnce("write", err, true)
			if got := b.put(long, 0); !errors.Is(got, err) {
				t.Fatalf("put over a failing write: %v, want %v", got, err)
			}
			b.reads(a, 0)
			b.mustPut(a, 1)
			if ref := b.s.index["a"].refs[0]; ref.off != at {
				t.Fatalf("the put after the failed one landed at %d, want %d", ref.off, at)
			}
			torn := obs.StoreTornTails.Value()
			if err := b.reopen(true); err != nil {
				t.Fatal(err)
			}
			if err := b.reopen(false); err != nil {
				t.Fatalf("reopen with the segment sealed: %v", err)
			}
			if n := obs.StoreTornTails.Value() - torn; n != 0 {
				t.Fatalf("%d torn tails on reopen: the failed write left bytes behind", n)
			}
			b.reads(a, 1)
		}
	}
	cases := []struct {
		name string
		sync bool
		run  func(t *testing.T, b *faultBed)
	}{
		{"short write", false, failedWrite(io.ErrShortWrite)},
		{"EIO on a write", false, failedWrite(errEIO)},
		{"ENOSPC on a write", false, failedWrite(errENOSPC)},
		{"failed fsync under SyncEveryPut", true, func(t *testing.T, b *faultBed) {
			before := b.s.Stats()
			b.fs.hook = failOnce("sync", errEIO, false)
			if err := b.put(a, 1); !errors.Is(err, errEIO) {
				t.Fatalf("put whose fsync failed: %v", err)
			}
			// Written, never acknowledged: dead weight for compaction.
			after := b.s.Stats()
			if after.LiveBytes != before.LiveBytes || after.DeadBytes <= before.DeadBytes || after.DiskBytes != before.DiskBytes+after.DeadBytes-before.DeadBytes {
				t.Fatalf("the unacknowledged bytes: live %d → %d, dead %d → %d, disk %d → %d",
					before.LiveBytes, after.LiveBytes, before.DeadBytes, after.DeadBytes, before.DiskBytes, after.DiskBytes)
			}
			b.reads(a, 0)
			b.mustPut(a, 2)
			if err := b.reopen(false); err != nil {
				t.Fatal(err)
			}
			b.reads(a, 2)
		}},
		{"failed fsync before the unlink", false, func(t *testing.T, b *faultBed) {
			b.mustPut(long, 0) // fills segment 1
			b.mustPut(a, 1)    // rolls
			b.mustPut(long, 1) // and segment 1 is all dead
			b.fs.hook = failOnce("sync", errEIO, false)
			if _, did, err := b.s.CompactOnce(); did || !errors.Is(err, errEIO) {
				t.Fatalf("pass whose fsync failed: compacted %v, err %v", did, err)
			}
			if _, _, err := b.fs.open(segPath("d", 1)); err != nil {
				t.Fatalf("the victim went without the fsync: %v", err)
			}
			if res, did, err := b.s.CompactOnce(); !did || err != nil || res.Segment != 1 {
				t.Fatalf("the next pass: %+v, compacted %v, err %v", res, did, err)
			}
			b.reads(a, 1)
			b.reads(long, 1)
		}},
		{"failed Truncate of a torn tail", false, func(t *testing.T, b *faultBed) {
			b.fs.hook = cutWrite(func(p []byte) int { return len(p) / 2 })
			if err := b.put(long, 0); !errors.Is(err, errCut) {
				t.Fatal(err)
			}
			b.s.Close()
			b.fs = b.fs.crash(processKill, 1)
			b.fs.hook = failOnce("truncate", errEIO, false)
			b.cfg.fs = b.fs
			s, err := Open(b.cfg)
			if err == nil {
				s.Close()
			}
			if !errors.Is(err, errEIO) || !strings.Contains(err.Error(), segPath("d", 1)) {
				t.Fatalf("Open over a tail it cannot truncate: %v, want EIO and the path", err)
			}
			if b.s, err = Open(b.cfg); err != nil { // the fault was transient
				t.Fatal(err)
			}
			b.reads(a, 0)
		}},
		{"EIO on a read", false, func(t *testing.T, b *faultBed) {
			b.fs.hook = failOnce("read", errEIO, false)
			if _, _, err := b.s.GetVec(vec.Vec{}, "a", false, nil); !errors.Is(err, errEIO) {
				t.Fatalf("get over a failing read: %v", err)
			}
			b.reads(a, 0)
			b.mustPut(a, 1)
			b.reads(a, 1)
		}},
		// A roll whose header write fails must take its file with it: left
		// behind, it is a segment without a header below the next roll's,
		// and no Open gets past it.
		{"ENOSPC on a roll's header", false, func(t *testing.T, b *faultBed) {
			b.mustPut(long, 0) // fills segment 1
			b.fs.hook = failOnce("write", errENOSPC, false)
			if err := b.put(a, 1); !errors.Is(err, errENOSPC) {
				t.Fatalf("put whose roll failed: %v", err)
			}
			if names, _ := b.fs.segments("d"); len(names) != 1 {
				t.Fatalf("the failed roll left its file behind: %v", names)
			}
			b.reads(a, 0)
			b.mustPut(a, 1)
			b.mustPut(long, 1)
			b.mustPut(a, 2) // past the next roll
			if err := b.reopen(false); err != nil {
				t.Fatalf("reopen after a failed roll: %v", err)
			}
			b.reads(a, 2)
			b.reads(long, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &faultBed{t: t, fs: newMemFS(1)}
			b.cfg = Config{Dir: "d", SegmentTargetBytes: 2 << 10, SyncEveryPut: tc.sync, fs: b.fs}
			var err error
			if b.s, err = Open(b.cfg); err != nil {
				t.Fatal(err)
			}
			defer func() { b.s.Close() }()
			b.mustPut(0, 0)
			tc.run(t, b)
		})
	}
}

// TestHeaderlessTailIsDropped: power lost between a segment's creation
// and its header leaves an empty newest segment. Adopted as it is (what
// recovery did before it dropped such a file), the next put lands at
// offset 0 and every later Open dies on the magic.
func TestHeaderlessTailIsDropped(t *testing.T) {
	fs := newMemFS(1)
	created := false
	fs.hook = func(c *ioCall) error {
		if created && c.op == "write" {
			c.keep = 0
			return errCut
		}
		created = created || c.op == "create"
		return nil
	}
	cfg := Config{Dir: "d", fs: fs}
	if _, err := Open(cfg); !errors.Is(err, errCut) {
		t.Fatalf("Open on a disk that dies under the first header: %v", err)
	}
	cfg.fs = fs.crash(processKill, 1)
	if names, _ := cfg.fs.segments("d"); len(names) != 1 {
		t.Fatalf("setup: the crash left %v, want the empty segment", names)
	}
	b := &faultBed{t: t, cfg: cfg}
	var err error
	if b.s, err = Open(cfg); err != nil {
		t.Fatalf("Open over an empty segment: %v", err)
	}
	defer func() { b.s.Close() }()
	b.mustPut(0, 0)
	if err := b.reopen(false); err != nil {
		t.Fatalf("reopen after a put into the recovered store: %v", err)
	}
	b.reads(0, 0)
}

// TestKilledThenPowerCut: a process kill leaves its unsynced bytes with
// the OS. If the tail it leaves is full, the next Open seals it — after
// an fsync of it (ensureActive adopts it for the roll), or a power cut
// tears a segment that is no longer the newest and nothing opens again.
func TestKilledThenPowerCut(t *testing.T) {
	b := &faultBed{t: t, fs: newMemFS(1)}
	b.cfg = Config{Dir: "d", SegmentTargetBytes: 2 << 10, fs: b.fs}
	var err error
	if b.s, err = Open(b.cfg); err != nil {
		t.Fatal(err)
	}
	b.mustPut(2, 0) // fills segment 1; nothing fsyncs it
	killed := b.fs.crash(processKill, 1)
	b.s.Close()
	b.cfg.fs = killed
	if b.s, err = Open(b.cfg); err != nil {
		t.Fatal(err)
	}
	defer func() { b.s.Close() }()
	if names, _ := killed.segments("d"); len(names) != 2 {
		t.Fatalf("setup: %v after the reopen, want the full tail sealed and a new one", names)
	}
	for seed := int64(1); seed <= 32; seed++ {
		cfg := b.cfg
		cfg.fs = killed.crash(powerCut, seed)
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("power cut %d after the reopen: %v", seed, err)
		}
		s.Close()
	}
	b.reads(2, 0)
}
