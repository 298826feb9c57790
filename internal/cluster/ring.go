package cluster

import (
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Construction is a
// pure function of the topology's node names and vnode count, so every
// process that loads the same topology file routes every key the same
// way — determinism across restarts and across router replicas without
// any coordination. Lookups are allocation-free (gated at 0 allocs/op
// by BenchmarkRingOwners in scripts/bench.sh): the ring is a sorted
// array binary-searched per key.
type Ring struct {
	// points is the sorted vnode table: a key owned by the first point
	// clockwise from its hash.
	points []ringPoint
	// nodes is the number of distinct nodes on the ring.
	nodes int
}

// ringPoint is one virtual node: its position and the node it belongs
// to (index into the topology's Nodes slice).
type ringPoint struct {
	hash uint64
	node int32
}

// fnvOffset/fnvPrime are the FNV-64a parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnv64a hashes s without allocating (hash/fnv's New64a returns a
// heap-boxed state; the route hot path cannot afford it).
func fnv64a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is the splitmix64 finalizer: FNV alone clusters short similar
// strings ("load-1", "load-2", ...); the finalizer spreads them over
// the full 64-bit ring so vnode arcs and key placements come out
// uniform (the balance property test pins max/min key share).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// KeyHash returns the ring position of a key.
func KeyHash(key string) uint64 { return mix64(fnv64a(key)) }

// vnodeHash places vnode i of a node: the name hash extended with the
// vnode index, finalized. Pure function of (name, i) — nodes keep their
// arcs across restarts and topology edits that don't touch them.
func vnodeHash(name string, i int) uint64 {
	h := fnv64a(name)
	v := uint64(i)
	for b := 0; b < 4; b++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return mix64(h)
}

// NewRing builds the ring for a topology.
func NewRing(t Topology) *Ring {
	t = t.withDefaults()
	r := &Ring{
		points: make([]ringPoint, 0, len(t.Nodes)*t.VNodes),
		nodes:  len(t.Nodes),
	}
	for ni, n := range t.Nodes {
		for i := 0; i < t.VNodes; i++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(n.Name, i), node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical positions (vanishingly rare) tie-break by node so
		// construction order cannot leak into routing.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the number of distinct nodes on the ring.
func (r *Ring) Nodes() int { return r.nodes }

// search returns the index of the first point clockwise from h.
func (r *Ring) search(h uint64) int {
	// Manual binary search: sort.Search's func closure is free here too,
	// but open-coding keeps the hot path branch-predictable.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		return 0 // wrap
	}
	return lo
}

// Owners returns the primary and replica node indexes for a key. The
// replica is the next distinct node clockwise from the primary's vnode
// — the classic successor-list placement, so removing a node hands its
// keys to the node already holding their replicas. On a one-node ring
// replica is -1.
func (r *Ring) Owners(key string) (primary, replica int) {
	return r.ownersAt(KeyHash(key))
}

// ownersAt resolves owners from a precomputed ring position.
func (r *Ring) ownersAt(h uint64) (primary, replica int) {
	i := r.search(h)
	p := r.points[i].node
	if r.nodes < 2 {
		return int(p), -1
	}
	// Walk clockwise to the first vnode of a different node. Bounded by
	// the ring size; with uniform vnode placement the expected walk is
	// ~nodes/(nodes-1) points.
	for j := 1; j < len(r.points); j++ {
		k := i + j
		if k >= len(r.points) {
			k -= len(r.points)
		}
		if r.points[k].node != p {
			return int(p), int(r.points[k].node)
		}
	}
	return int(p), -1
}
