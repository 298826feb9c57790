// Package dganger implements the Doppelgänger comparison design (San
// Miguel et al., MICRO'15 [39]) as configured in the paper's evaluation:
// an approximate-deduplication LLC with the same data-array size as the
// AVR LLC and a 4× larger tag array, able to index up to 4× more
// cachelines than it stores.
//
// Approximate cachelines whose contents produce the same "map" (a coarse
// signature of their value distribution) share a single data entry. A
// line that dedups onto an existing entry thereafter reads as that
// entry's values — the source of both Doppelgänger's effective capacity
// gain and its failure mode: two lines at opposite edges of a signature
// bucket are treated as approximately equal even when their absolute
// values differ, which is what produces the paper's runaway error on
// orbit and lbm.
package dganger

import (
	"encoding/binary"
	"math"

	"avr/internal/compress"
	"avr/internal/dram"
	"avr/internal/mem"
)

// tagFactor multiplies the tag-array entries per set: the paper's tag
// array indexes 4× the lines its data array stores.
const tagFactor = 4

// Config parameterises the design.
type Config struct {
	// CapacityBytes is the data-array capacity (equal to the AVR LLC).
	CapacityBytes int
	// Ways is the data-array associativity.
	Ways int
	// HitCycles is the access latency.
	HitCycles int
}

// Stats counts design activity.
type Stats struct {
	Requests     uint64
	Hits         uint64
	DemandMisses uint64
	Dedups       uint64 // approximate lines that mapped onto an existing entry
	Accesses     uint64
}

type tagEntry struct {
	tag     uint64
	stamp   uint64
	dataWay int8
	valid   bool
	dirty   bool
	approx  bool
}

type dataEntry struct {
	sig     uint64
	stamp   uint64
	refs    int16
	valid   bool
	payload [64]byte
}

// LLC is the Doppelgänger cache model.
type LLC struct {
	cfg      Config
	sets     int
	tags     []tagEntry  // sets × Ways×tagFactor
	data     []dataEntry // sets × Ways
	tagWays  int
	clock    uint64
	space    *mem.Space
	dramCtrl *dram.DRAM
	stats    Stats
}

// New builds the design.
func New(cfg Config, space *mem.Space, d *dram.DRAM) *LLC {
	sets := cfg.CapacityBytes / (cfg.Ways * 64)
	if sets == 0 || sets&(sets-1) != 0 {
		panic("dganger: set count must be a power of two")
	}
	return &LLC{
		cfg:      cfg,
		sets:     sets,
		tagWays:  cfg.Ways * tagFactor,
		tags:     make([]tagEntry, sets*cfg.Ways*tagFactor),
		data:     make([]dataEntry, sets*cfg.Ways),
		space:    space,
		dramCtrl: d,
	}
}

func (l *LLC) tick() uint64 { l.clock++; return l.clock }

func (l *LLC) set(addr uint64) int { return int((addr >> 6) & uint64(l.sets-1)) }
func (l *LLC) tag(addr uint64) uint64 {
	return addr >> 6 / uint64(l.sets)
}

// signature computes the Doppelgänger map of a line: coarse buckets of
// the value average and span. Float data buckets on the top bits of the
// float encoding (sign, exponent, 3 mantissa bits); fixed-point data on
// the high-order bits of the integer average.
func (l *LLC) signature(addr uint64, dt compress.DataType) uint64 {
	line := l.space.Line(addr)
	if dt == compress.Float32 {
		var sum float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 64; i += 4 {
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(line[i:])))
			if v != v { // NaN: unique signature, never dedups
				return 0xFFFF_FFFF_0000_0000 | addr>>6
			}
			sum += v
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		mean := float32(sum / 16)
		span := float32(hi - lo)
		qm := uint64(math.Float32bits(mean) >> 21) // sign+exp+2 mantissa bits
		qs := uint64(math.Float32bits(span) >> 22) // sign+exp+1 mantissa bit
		// Per-value shape pattern: each value quantised to 2 bits within
		// the line's own [min,max] span. Values at opposite extremes of
		// the span are distinguished, but lines whose spans themselves
		// sit at opposite edges of a coarse bucket still alias — the
		// failure mode the paper observes on lbm and orbit.
		var pattern uint64
		d := hi - lo
		if d <= math.Abs(float64(mean))/64 {
			// Effectively constant line: the content is the value itself,
			// so the map carries it at fine granularity (constant lines
			// only dedup onto near-identical constants).
			return 1<<48 | uint64(math.Float32bits(mean)>>14)
		}
		{
			for i := 0; i < 64; i += 4 {
				v := float64(math.Float32frombits(binary.LittleEndian.Uint32(line[i:])))
				q := uint64(4 * (v - lo) / d)
				if q > 3 {
					q = 3
				}
				pattern = pattern<<2 | q
			}
		}
		return qm<<40 | qs<<32 | pattern&0xFFFFFFFF
	}
	var sum int64
	var lo, hi int64 = math.MaxInt64, math.MinInt64
	for i := 0; i < 64; i += 4 {
		v := int64(int32(binary.LittleEndian.Uint32(line[i:])))
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	qm := uint64(sum/16) >> 8
	qs := uint64(hi-lo) >> 10
	return 1<<62 | qm<<16 | qs&0xFFFF
}

// findTag returns the tag way holding addr, or -1.
func (l *LLC) findTag(s int, t uint64) int {
	base := s * l.tagWays
	for w := 0; w < l.tagWays; w++ {
		e := &l.tags[base+w]
		if e.valid && e.tag == t {
			return w
		}
	}
	return -1
}

// Access serves a demand request.
func (l *LLC) Access(now uint64, addr uint64) uint64 {
	l.stats.Requests++
	l.stats.Accesses++
	hit := uint64(l.cfg.HitCycles)
	s, t := l.set(addr), l.tag(addr)
	if w := l.findTag(s, t); w >= 0 {
		e := &l.tags[s*l.tagWays+w]
		e.stamp = l.tick()
		l.data[s*l.cfg.Ways+int(e.dataWay)].stamp = l.tick()
		l.stats.Hits++
		return hit
	}
	l.stats.DemandMisses++
	info := l.space.Info(addr)
	done := l.dramCtrl.Access(now, addr, false, info.Approx)
	l.insert(now, addr, false)
	return done - now + hit
}

// WriteBack receives a dirty line from the L2. A dirty approximate line
// may now map to a different signature, so it is re-associated.
func (l *LLC) WriteBack(now uint64, addr uint64) {
	l.stats.Accesses++
	s, t := l.set(addr), l.tag(addr)
	if w := l.findTag(s, t); w >= 0 {
		e := &l.tags[s*l.tagWays+w]
		if e.approx {
			// Contents changed: recompute the map and re-associate.
			l.detach(s, e)
			e.valid = false
			l.insert(now, addr, true)
			return
		}
		e.dirty = true
		e.stamp = l.tick()
		return
	}
	l.insert(now, addr, true)
}

// insert installs addr with dedup for approximate lines.
func (l *LLC) insert(now uint64, addr uint64, dirty bool) {
	s, t := l.set(addr), l.tag(addr)
	info := l.space.Info(addr)

	// Find or make a tag slot.
	base := s * l.tagWays
	tw, oldest := -1, ^uint64(0)
	for w := 0; w < l.tagWays; w++ {
		e := &l.tags[base+w]
		if !e.valid {
			tw = w
			oldest = 0
			break
		}
		if e.stamp < oldest {
			oldest = e.stamp
			tw = w
		}
	}
	te := &l.tags[base+tw]
	if te.valid {
		l.evictTag(now, s, te)
	}

	var dw int
	if info.Approx {
		sig := l.signature(addr, info.Type)
		if w := l.findData(s, sig); w >= 0 {
			// Dedup: the line's values become the stored entry's values.
			l.stats.Dedups++
			d := &l.data[s*l.cfg.Ways+w]
			d.refs++
			d.stamp = l.tick()
			copy(l.space.Line(addr), d.payload[:])
			dw = w
		} else {
			dw = l.allocData(now, s)
			d := &l.data[s*l.cfg.Ways+dw]
			*d = dataEntry{sig: sig, refs: 1, valid: true, stamp: l.tick()}
			copy(d.payload[:], l.space.Line(addr))
		}
	} else {
		dw = l.allocData(now, s)
		d := &l.data[s*l.cfg.Ways+dw]
		*d = dataEntry{sig: 1<<63 | addr>>6, refs: 1, valid: true, stamp: l.tick()}
	}
	*te = tagEntry{tag: t, stamp: l.tick(), dataWay: int8(dw), valid: true, dirty: dirty, approx: info.Approx}
}

// findData looks for a data entry with the given signature.
func (l *LLC) findData(s int, sig uint64) int {
	base := s * l.cfg.Ways
	for w := 0; w < l.cfg.Ways; w++ {
		d := &l.data[base+w]
		if d.valid && d.sig == sig {
			return w
		}
	}
	return -1
}

// allocData frees up a data way in set s, evicting every tag that
// references the victim.
func (l *LLC) allocData(now uint64, s int) int {
	base := s * l.cfg.Ways
	victim, oldest := -1, ^uint64(0)
	for w := 0; w < l.cfg.Ways; w++ {
		d := &l.data[base+w]
		if !d.valid {
			return w
		}
		if d.stamp < oldest {
			oldest = d.stamp
			victim = w
		}
	}
	// Evict all tags pointing at the victim way.
	for w := 0; w < l.tagWays; w++ {
		e := &l.tags[s*l.tagWays+w]
		if e.valid && int(e.dataWay) == victim {
			l.evictTag(now, s, e)
			e.valid = false
		}
	}
	l.data[base+victim].valid = false
	return victim
}

// evictTag writes back a dirty line and releases its data reference.
func (l *LLC) evictTag(now uint64, s int, e *tagEntry) {
	addr := (e.tag*uint64(l.sets) + uint64(s)) << 6
	if e.dirty {
		if e.approx {
			// The line reads back as the shared payload.
			d := &l.data[s*l.cfg.Ways+int(e.dataWay)]
			if d.valid {
				copy(l.space.Line(addr), d.payload[:])
			}
		}
		l.dramCtrl.Access(now, addr, true, e.approx)
	}
	l.detach(s, e)
}

// detach drops the tag's data reference, freeing the entry at zero refs.
func (l *LLC) detach(s int, e *tagEntry) {
	d := &l.data[s*l.cfg.Ways+int(e.dataWay)]
	if d.valid {
		d.refs--
		if d.refs <= 0 {
			d.valid = false
		}
	}
}

// Flush writes every dirty line back to memory.
func (l *LLC) Flush(now uint64) {
	for s := 0; s < l.sets; s++ {
		for w := 0; w < l.tagWays; w++ {
			e := &l.tags[s*l.tagWays+w]
			if e.valid && e.dirty {
				addr := (e.tag*uint64(l.sets) + uint64(s)) << 6
				if e.approx {
					d := &l.data[s*l.cfg.Ways+int(e.dataWay)]
					if d.valid {
						copy(l.space.Line(addr), d.payload[:])
					}
				}
				l.dramCtrl.Access(now, addr, true, e.approx)
				e.dirty = false
			}
		}
	}
}

// Stats returns design counters.
func (l *LLC) Stats() Stats { return l.stats }
