package cache

import "math/bits"

// maxWays is the largest associativity an order can rank: a way number
// is one nibble, and a set's sixteen nibbles fill one word.
const maxWays = 16

// nibbles has 1 in every nibble: w*nibbles repeats w across the word.
const nibbles = 0x1111_1111_1111_1111

// order is one set's exact LRU order: its way numbers as nibbles, the
// most recently touched in the low nibble (position 0) and the least
// recently touched at position ways-1. Every way of the set appears
// exactly once; the nibbles above position ways-1 are zero.
//
// The invalid ways sit at the LRU end, the lowest-numbered at position
// ways-1 and the others in ascending order towards the MRU end (retire
// puts a way there, and a newly filled way leaves from the LRU end).
// Then the way at the LRU position is always the victim the stamp model
// chose: the first invalid way by index, else the least recently
// touched one.
type order uint64

// newOrder returns the order of a set with every way invalid: way 0 at
// the LRU position, way ways-1 at the MRU position.
func newOrder(ways int) order {
	var o order
	for p := 0; p < ways; p++ {
		o |= order(ways-1-p) << (4 * p)
	}
	return o
}

// pos returns the position of way w, which must be in the order. The
// nibble holding w is the lowest zero nibble of o^w*nibbles, found with
// the SWAR zero-nibble test; its borrows only mark nibbles above the
// first zero one, and unused zero nibbles sit above every real position.
func (o order) pos(w int) uint {
	x := uint64(o) ^ uint64(w)*nibbles
	z := (x - nibbles) &^ x & (nibbles << 3)
	return uint(bits.TrailingZeros64(z)) >> 2
}

// touch moves way w to the MRU position, keeping the others in order. A
// way already second takes a short path (one already at the front needs
// no move, and the caller skips the store): between them they are most
// of the simulator's L1 hits (DESIGN.md §3).
func (o order) touch(w int) order {
	if order(w) == o>>4&15 {
		return o&^0xff | o<<4&0xf0 | order(w)
	}
	low := uint64(1)<<(4*o.pos(w)) - 1 // the positions before w's (nearer MRU)
	return order(uint64(o)&^(low<<4|15) | (uint64(o)&low)<<4 | uint64(w))
}

// retire moves way w, just invalidated, among the invalid ways at the LRU
// end of a ways-way set: below of them (the invalid ways numbered under
// w) stay nearer the LRU position than w.
func (o order) retire(w, ways, below int) order {
	low := uint64(1)<<(4*o.pos(w)) - 1
	r := uint64(o)&low | uint64(o)>>4&^low // w taken out; ways-1 nibbles left
	q := uint64(1)<<(4*uint(ways-1-below)) - 1
	return order(r&q | uint64(w)<<(4*uint(ways-1-below)) | (r&^q)<<4)
}
