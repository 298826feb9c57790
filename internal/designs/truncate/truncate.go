// Package truncate implements the "Truncate" comparison design of the
// paper's evaluation (§4.1): approximate values are compressed to half
// precision by truncating the 16 least significant bits of every 32-bit
// value on the memory link, as proposed by Jain et al. / Judd et al. /
// Sathish et al. [21, 22, 42]. The compression ratio is a fixed 2:1 and,
// unlike AVR, no inter-value similarity is exploited.
//
// For float32 data this truncation keeps sign, exponent and the top 7
// mantissa bits (the bfloat16 format), bounding the relative error by
// 2^-8; fixed-point data loses its low 16 bits.
package truncate

import (
	"avr/internal/cache"
	"avr/internal/compress"
	"avr/internal/dram"
	"avr/internal/mem"
)

// Stats counts design activity beyond the embedded cache's counters.
type Stats struct {
	Requests      uint64
	DemandMisses  uint64
	ApproxFetches uint64
	ApproxWBs     uint64
	Accesses      uint64
}

// LLC is a conventional LLC whose memory-link transfers of approximate
// lines are truncated to half size.
type LLC struct {
	c         *cache.Cache
	space     *mem.Space
	dramCtrl  *dram.DRAM
	hitCycles int
	stats     Stats
}

// New builds the design over the given space and DRAM.
func New(capacity, ways, hitCycles int, space *mem.Space, d *dram.DRAM) *LLC {
	return &LLC{
		c:         cache.New(capacity, ways, 64),
		space:     space,
		dramCtrl:  d,
		hitCycles: hitCycles,
	}
}

// truncateLine zeroes the low 16 bits of every 32-bit value in addr's
// line, the functional effect of a half-precision link transfer. The
// operation is idempotent, so applying it on both fetch and writeback is
// equivalent to truncating on the wire.
func (l *LLC) truncateLine(addr uint64) {
	line := l.space.Line(addr)
	for i := 0; i < 64; i += 4 {
		line[i] = 0
		line[i+1] = 0
	}
}

// Prime truncates every approximable line in the space, modelling input
// data having crossed the memory link before the measured region.
func (l *LLC) Prime() {
	l.space.ApproxBlocks(func(blockAddr uint64, _ compress.DataType) {
		for cl := uint64(0); cl < compress.BlockBytes; cl += 64 {
			l.truncateLine(blockAddr + cl)
		}
	})
}

// Access serves a demand request, returning its latency.
func (l *LLC) Access(now uint64, addr uint64) uint64 {
	l.stats.Requests++
	l.stats.Accesses++
	hit := uint64(l.hitCycles)
	if l.c.Access(addr, false) {
		return hit
	}
	l.stats.DemandMisses++
	approx := l.space.Info(addr).Approx
	var done uint64
	if approx {
		l.stats.ApproxFetches++
		done = l.dramCtrl.AccessBytes(now, addr, 32, false, true)
		l.truncateLine(addr)
	} else {
		done = l.dramCtrl.Access(now, addr, false, false)
	}
	l.writeVictim(now, l.c.Allocate(addr, false))
	return done - now + hit
}

// WriteBack receives a dirty line from the L2.
func (l *LLC) WriteBack(now uint64, addr uint64) {
	l.stats.Accesses++
	if l.c.Access(addr, true) {
		return
	}
	// Write-allocate without fetch: the entire line is being overwritten.
	l.writeVictim(now, l.c.Allocate(addr, true))
}

func (l *LLC) writeVictim(now uint64, v cache.Victim) {
	if !v.Valid || !v.Dirty {
		return
	}
	if l.space.Info(v.Addr).Approx {
		l.stats.ApproxWBs++
		l.truncateLine(v.Addr)
		l.dramCtrl.AccessBytes(now, v.Addr, 32, true, true)
	} else {
		l.dramCtrl.Access(now, v.Addr, true, false)
	}
}

// Flush drains all dirty lines to memory.
func (l *LLC) Flush(now uint64) {
	var dirty []uint64
	l.c.DirtyLines(func(a uint64) { dirty = append(dirty, a) })
	for _, a := range dirty {
		l.writeVictim(now, cache.Victim{Valid: true, Dirty: true, Addr: a})
		l.c.MarkClean(a)
	}
}

// Stats returns design counters.
func (l *LLC) Stats() Stats { return l.stats }
