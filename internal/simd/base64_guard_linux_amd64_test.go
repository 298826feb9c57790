package simd

import (
	"math/rand"
	"syscall"
	"testing"
)

// guarded returns n writable bytes in the middle page of three whose
// outer two are PROT_NONE, ending flush against the dead page after
// them (atEnd) or starting flush against the one before: a kernel that
// reads or writes a byte outside the slice faults.
func guarded(t *testing.T, n int, atEnd bool) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	if n > page {
		t.Fatalf("guarded: %d bytes do not fit a page", n)
	}
	m, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(m) }) // a test's scratch mapping; nothing to do about a failure
	for _, dead := range [][]byte{m[:page], m[2*page:]} {
		if err := syscall.Mprotect(dead, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	if atEnd {
		return m[2*page-n : 2*page : 2*page]
	}
	return m[page : page+n : page+n]
}

// TestBase64StaysInsideItsSlices runs every length whose text has no,
// one or several vector groups with source and destination both hard
// against unmapped memory.
func TestBase64StaysInsideItsSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 0; n <= 200; n++ {
		for _, atEnd := range []bool{true, false} {
			src := guarded(t, n, atEnd)
			rng.Read(src)
			text := guarded(t, std.EncodedLen(n), atEnd)
			Base64Encode(text, src)
			checkEncode(t, src)

			back := guarded(t, std.DecodedLen(len(text)), atEnd)
			if m, ok := Base64Decode(back, text); !ok || string(back[:m]) != string(src) {
				t.Fatalf("%d bytes (atEnd %v): decode ok %v, %d bytes", n, atEnd, ok, m)
			}
			if len(text) > 0 { // and the path a bad byte takes: kernel, then the whole text again
				text[rng.Intn(len(text))] = '*'
				if _, ok := Base64Decode(back, text); ok {
					t.Fatalf("%d bytes (atEnd %v): a text with '*' in it passes", n, atEnd)
				}
			}
		}
	}
}
