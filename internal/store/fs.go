package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// fsys is the one seam between the store and the disk: every byte the
// package reads or writes, every name it creates or removes and every
// fsync it issues goes through the fsys its Config carries. osFS is the
// only implementation outside the tests; in them a seeded in-memory model
// of what an OS promises about a crash stands in (memfs_test.go), which
// is how DESIGN.md's durability statement is checked.
type fsys interface {
	// openDir opens directory path, made with any missing parents first.
	openDir(path string) (directory, error)
	// segments lists the base names in dir that look like segment files.
	segments(dir string) ([]string, error)
	// open opens an existing file read-write and reports its size.
	open(path string) (file, int64, error)
	// create makes a new, empty file read-write; an existing one is an error.
	create(path string) (file, error)
	remove(path string) error
}

// directory is an open directory. Sync makes the names created in it and
// removed from it durable; the store keeps the handle for its lifetime,
// so a roll pays the fsync and nothing else.
type directory interface {
	Sync() error
	Close() error
}

// file is an open segment.
type file interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// segName and segGlob are how a segment file is called.
const (
	segName = "seg-%08d.avrseg"
	segGlob = "seg-*.avrseg"
)

// segPath names segment id's file in dir.
func segPath(dir string, id uint32) string {
	return filepath.Join(dir, fmt.Sprintf(segName, id))
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) openDir(path string) (directory, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	d, err := os.Open(path)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil directory
	}
	return d, nil
}

func (osFS) segments(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, segGlob))
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths, err
}

func (osFS) open(path string) (file, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

func (osFS) create(path string) (file, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil file
	}
	return f, nil
}

func (osFS) remove(path string) error { return os.Remove(path) }
