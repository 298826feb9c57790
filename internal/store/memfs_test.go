package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// memFS is the test side of the fsys seam: an in-memory disk that
// promises what an operating system promises about a crash and no more.
//
//   - Bytes written to a file since its last Sync are held apart from the
//     bytes that Sync made durable. A process kill keeps them all (they
//     were the OS's already); a power cut keeps a seeded prefix of them —
//     the writes and truncations in the order they were issued, the last
//     one to land perhaps in part — and in its harsher half one 512-byte
//     sector of what landed reads back as zeros (a length that reached the
//     disk ahead of its data).
//   - A name created or removed since its directory's last Sync survives
//     a power cut or not, by seed, each on its own and whatever was fsynced
//     in the file behind it.
//   - Every call passes through hook first, which can fail it (EIO, ENOSPC,
//     a short write, a failed fsync) or end the world there with errCut: a
//     WriteAt so cut lands a prefix of its bytes, every later call fails.
//
// crash turns what a downed (or merely abandoned) disk holds into the
// disk the next process finds.
type memFS struct {
	mu    sync.Mutex
	seed  int64                // of the prefix a cut write lands
	live  map[string]*memInode // the names the running process sees
	disk  map[string]*memInode // the names as of the directory's last Sync
	hook  func(c *ioCall) error
	calls []ioCall // every call so far, in order
	down  bool
	syncs int // file Syncs that completed

	resurrected int // crash: removed names a power cut brought back
}

// ioCall is one call on the seam, as the hook and a failure report see it.
type ioCall struct {
	index int // ordinal among this disk's calls
	op    string
	path  string
	off   int64
	n     int    // bytes asked for
	b     []byte // write: the bytes (valid during the hook only)
	// keep is how many bytes of a write land when the hook fails it: the
	// hook may set it, left at -1 a cut lands a seeded prefix and any other
	// failure nothing.
	keep int
}

func (c ioCall) String() string {
	s := fmt.Sprintf("#%d %s %s", c.index, c.op, filepath.Base(c.path))
	if c.op == "read" || c.op == "write" || c.op == "truncate" {
		s += fmt.Sprintf(" @%d+%d", c.off, c.n)
	}
	return s
}

// mutates reports whether the call can change what a crash leaves behind.
func (c ioCall) mutates() bool {
	switch c.op {
	case "create", "remove", "syncdir", "write", "sync", "truncate":
		return true
	}
	return false
}

// errCut is what every call returns from the cut on.
var errCut = errors.New("memfs: the machine is down")

// Faults a hook can hand back; the store must treat them as it would the
// kernel's.
var (
	errEIO    = errors.New("memfs: input/output error")
	errENOSPC = errors.New("memfs: no space left on device")
)

// memInode is a file's content, apart from its names.
type memInode struct {
	data    []byte     // what the process reads
	synced  []byte     // what the last Sync made durable
	pending []memWrite // what was done to it since, in order
}

// memWrite is one unsynced change: b written at off, or (trunc) the file
// cut or stretched to off bytes.
type memWrite struct {
	off   int64
	b     []byte
	trunc bool
}

func newMemFS(seed int64) *memFS {
	return &memFS{
		seed: seed,
		live: make(map[string]*memInode),
		disk: make(map[string]*memInode),
	}
}

// enter counts, records and vets one call. Caller holds the lock.
func (fs *memFS) enter(c *ioCall) error {
	if fs.down {
		c.keep = 0
		return errCut
	}
	c.index, c.keep = len(fs.calls), -1
	rec := *c
	rec.b = nil
	fs.calls = append(fs.calls, rec)
	if fs.hook == nil {
		return nil
	}
	err := fs.hook(c)
	if errors.Is(err, errCut) {
		fs.down = true
	}
	return err
}

// do is enter for the calls that have nothing to do on failure.
func (fs *memFS) do(op, path string, fn func() error) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.enter(&ioCall{op: op, path: path}); err != nil {
		return &iofs.PathError{Op: op, Path: path, Err: err}
	}
	return fn()
}

// openDir: directories themselves are taken as durable.
func (fs *memFS) openDir(path string) (directory, error) {
	return memDir{fs, path}, fs.do("opendir", path, func() error { return nil })
}

// memDir is an open directory.
type memDir struct {
	fs   *memFS
	path string
}

func (d memDir) Close() error { return d.fs.do("close", d.path, func() error { return nil }) }

func (d memDir) Sync() error {
	fs := d.fs
	return fs.do("syncdir", d.path, func() error {
		for p := range fs.disk {
			if filepath.Dir(p) == d.path {
				delete(fs.disk, p)
			}
		}
		for p, ino := range fs.live {
			if filepath.Dir(p) == d.path {
				fs.disk[p] = ino
			}
		}
		return nil
	})
}

func (fs *memFS) segments(dir string) (names []string, err error) {
	err = fs.do("segments", dir, func() error {
		for p := range fs.live {
			if ok, _ := filepath.Match(segGlob, filepath.Base(p)); ok && filepath.Dir(p) == dir {
				names = append(names, filepath.Base(p))
			}
		}
		sort.Strings(names)
		return nil
	})
	return names, err
}

func (fs *memFS) open(path string) (f file, size int64, err error) {
	err = fs.do("open", path, func() error {
		ino := fs.live[path]
		if ino == nil {
			return &iofs.PathError{Op: "open", Path: path, Err: iofs.ErrNotExist}
		}
		f, size = &memFile{fs: fs, ino: ino, path: path}, int64(len(ino.data))
		return nil
	})
	return f, size, err
}

func (fs *memFS) create(path string) (f file, err error) {
	err = fs.do("create", path, func() error {
		if fs.live[path] != nil {
			return &iofs.PathError{Op: "create", Path: path, Err: iofs.ErrExist}
		}
		ino := &memInode{}
		fs.live[path] = ino
		f = &memFile{fs: fs, ino: ino, path: path}
		return nil
	})
	return f, err
}

func (fs *memFS) remove(path string) error {
	return fs.do("remove", path, func() error {
		if fs.live[path] == nil {
			return &iofs.PathError{Op: "remove", Path: path, Err: iofs.ErrNotExist}
		}
		delete(fs.live, path)
		return nil
	})
}

// memFile is an open handle; like a descriptor it outlives the name.
type memFile struct {
	fs   *memFS
	ino  *memInode
	path string
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.enter(&ioCall{op: "read", path: f.path, off: off, n: len(p)}); err != nil {
		return 0, err
	}
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	c := ioCall{op: "write", path: f.path, off: off, n: len(p), b: p}
	err := f.fs.enter(&c)
	if err != nil {
		if c.keep < 0 && errors.Is(err, errCut) {
			c.keep = rand.New(rand.NewSource(f.fs.seed + int64(c.index))).Intn(len(p) + 1)
		}
		if c.keep <= 0 {
			return 0, err
		}
		p = p[:c.keep]
	}
	f.ino.write(memWrite{off: off, b: slices.Clone(p)})
	return len(p), err
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.enter(&ioCall{op: "truncate", path: f.path, off: size}); err != nil {
		return err
	}
	f.ino.write(memWrite{off: size, trunc: true})
	return nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.enter(&ioCall{op: "sync", path: f.path}); err != nil {
		return err
	}
	f.ino.synced, f.ino.pending = slices.Clone(f.ino.data), nil
	f.fs.syncs++
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.fs.enter(&ioCall{op: "close", path: f.path})
}

// write applies w to what the process sees and queues it for the next Sync.
func (ino *memInode) write(w memWrite) {
	ino.data = w.apply(ino.data)
	ino.pending = append(ino.pending, w)
}

// apply performs w on data.
func (w memWrite) apply(data []byte) []byte {
	end := w.off + int64(len(w.b))
	switch {
	case w.trunc && end < int64(len(data)):
		return data[:end]
	case !w.trunc && len(w.b) == 0:
		return data
	}
	if grow := end - int64(len(data)); grow > 0 {
		data = append(data, make([]byte, grow)...)
	}
	copy(data[w.off:], w.b)
	return data
}

// crashKind is how the process that used the disk ended.
type crashKind int

const (
	processKill crashKind = iota // the OS lives: everything written is there
	powerCut                     // only what was synced is sure
)

func (k crashKind) String() string { return [...]string{"process kill", "power cut"}[k] }

// crash returns the disk the next process finds after the one using fs
// died the given way, every seeded choice drawn from seed. A process
// kill changes nothing the OS holds: what was unsynced still is, and a
// crash of the disk returned can take it. fs is left as it is, so one
// run can be crashed both ways.
func (fs *memFS) crash(kind crashKind, seed int64) *memFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	img := newMemFS(seed)
	if kind == processKill {
		copies := make(map[*memInode]*memInode)
		dup := func(names map[string]*memInode) map[string]*memInode {
			out := make(map[string]*memInode, len(names))
			for p, ino := range names {
				if copies[ino] == nil {
					copies[ino] = &memInode{slices.Clone(ino.data), slices.Clone(ino.synced), slices.Clone(ino.pending)}
				}
				out[p] = copies[ino]
			}
			return out
		}
		img.live, img.disk = dup(fs.live), dup(fs.disk)
		return img
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(fs.live))
	for p := range fs.live {
		names = append(names, p)
	}
	for p := range fs.disk {
		if fs.live[p] == nil {
			names = append(names, p)
		}
	}
	sort.Strings(names) // the draws below must not depend on map order
	harsh := rng.Intn(2) == 0
	for _, p := range names {
		ino := fs.live[p]
		if was := fs.disk[p]; was != ino && rng.Intn(2) == 0 {
			// The directory never heard of what happened to this name.
			if ino, was = was, ino; was == nil {
				img.resurrected++
			}
		}
		if ino == nil {
			continue
		}
		data := ino.afterPowerCut(rng, harsh)
		left := &memInode{data: data, synced: slices.Clone(data)}
		img.live[p], img.disk[p] = left, left
	}
	return img
}

// afterPowerCut is the file's content once the power is back: what was
// synced, then a seeded prefix of what was not.
func (ino *memInode) afterPowerCut(rng *rand.Rand, harsh bool) []byte {
	data := slices.Clone(ino.synced)
	whole := rng.Intn(len(ino.pending) + 1) // this many changes landed, the next perhaps in part
	lo, hi := int64(-1), int64(0)           // the span unsynced bytes landed in
	for i, w := range ino.pending {
		if i == whole {
			if w.trunc {
				break
			}
			w.b = w.b[:rng.Intn(len(w.b)+1)]
		}
		if data = w.apply(data); len(w.b) > 0 {
			if lo < 0 || w.off < lo {
				lo = w.off
			}
			hi = max(hi, w.off+int64(len(w.b)))
		}
		if i == whole {
			break
		}
	}
	if hi = min(hi, int64(len(data))); harsh && lo >= 0 && lo < hi {
		sector := (lo + rng.Int63n(hi-lo)) &^ 511
		clear(data[max(sector, lo):min(sector+512, hi)])
	}
	return data
}

// log renders the calls so far, for a failure report.
func (fs *memFS) log() string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var b strings.Builder
	for _, c := range fs.calls {
		fmt.Fprintf(&b, "  %v\n", c)
	}
	return b.String()
}

// cutWrite is a hook that ends the world in the next WriteAt, landing
// keep(b) bytes of it: the torn put of the crash tests.
func cutWrite(keep func(b []byte) int) func(*ioCall) error {
	return func(c *ioCall) error {
		if c.op != "write" {
			return nil
		}
		c.keep = keep(c.b)
		return errCut
	}
}

// tearInFrame keeps the first i frames of a put's write and half of the
// next.
func tearInFrame(i int) func(b []byte) int {
	return func(b []byte) int {
		off := 0
		for ; ; i-- {
			n := frameHeaderLen + int(binary.LittleEndian.Uint32(b[off:]))
			if i == 0 {
				return off + n/2
			}
			off += n
		}
	}
}
