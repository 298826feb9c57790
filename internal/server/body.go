package server

import (
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// Buf is a pooled, reference-counted byte buffer: the one body reader
// of both serving tiers fills it (request bodies through Req.Body, leg
// replies on the router), and the batch handlers build leg bodies
// and responses in it. GetBuf and ReadBody hand it out holding one
// reference; the last Release puts it back in the pool. Whoever lets B
// outlive its own reference — the router's transport may still be
// writing a leg body after the round trip returned — takes another with
// Retain; whoever keeps bytes past every reference (the router GET
// cache) copies them.
type Buf struct {
	B    []byte
	refs atomic.Int32
}

// maxPooledBuf bounds what the pool retains: a buffer that grew past it
// for one oversized body is dropped on release instead of pinning that
// much memory per pool slot.
const maxPooledBuf = 4 << 20

var bufPool = sync.Pool{New: func() any { return new(Buf) }}

// GetBuf returns an empty buffer holding one reference.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	b.refs.Store(1)
	return b
}

// Retain adds a reference.
func (b *Buf) Retain() { b.refs.Add(1) }

// Release drops one reference (a nil Buf has none to drop). B must not
// be touched through a released reference.
func (b *Buf) Release() {
	if b == nil || b.refs.Add(-1) != 0 {
		return
	}
	if cap(b.B) > maxPooledBuf {
		b.B = nil
	}
	bufPool.Put(b)
}

// ReadBody reads r to EOF into a pooled buffer sized up front for size
// bytes (the message's Content-Length; negative when unknown, as for a
// chunked body), so a body of known length is read without a single
// grow-and-copy. The caller bounds size: it is allocated before a byte
// arrives. Errors from r — *http.MaxBytesError included — come back
// unwrapped, with the buffer already released.
func ReadBody(r io.Reader, size int64) (*Buf, error) {
	b := GetBuf()
	// One spare byte lets the read that reports EOF find room.
	if need := int(size) + 1; size >= 0 && cap(b.B) < need {
		b.B = make([]byte, 0, need)
	}
	for {
		if len(b.B) == cap(b.B) {
			b.B = slices.Grow(b.B, max(cap(b.B), 32<<10))
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			b.Release()
			return nil, err
		}
	}
}
