package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testTopology builds an n-node topology with deterministic names.
func testTopology(n, vnodes int) Topology {
	t := Topology{VNodes: vnodes}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, Node{
			Name: fmt.Sprintf("node-%02d", i),
			Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i),
		})
	}
	return t
}

// testKeys generates k deterministic keys shaped like real store keys.
func testKeys(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("load-%d-%d", i%97, i)
	}
	return keys
}

// Balance: across 16 nodes at 128 vnodes, the busiest node's key share
// must stay within 1.35× the quietest's — the bar under which a static
// topology needs no weighting knobs.
func TestRingBalance(t *testing.T) {
	const nodes, vnodes, nkeys = 16, 128, 200000
	r := NewRing(testTopology(nodes, vnodes))
	counts := make([]int, nodes)
	for _, k := range testKeys(nkeys) {
		p, rep := r.Owners(k)
		if p == rep {
			t.Fatalf("key %q: primary == replica == %d", k, p)
		}
		counts[p]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	t.Logf("primary key share: min %d, max %d, ratio %.3f (ideal %d)",
		min, max, float64(max)/float64(min), nkeys/nodes)
	if min == 0 {
		t.Fatalf("a node owns no keys: %v", counts)
	}
	if ratio := float64(max) / float64(min); ratio > 1.35 {
		t.Fatalf("key share max/min = %.3f, want <= 1.35 (counts %v)", ratio, counts)
	}
}

// Determinism: two rings built from the same topology — fresh process
// restarts in production — must route every key identically, and the
// replica must always differ from the primary.
func TestRingDeterministicAcrossRestarts(t *testing.T) {
	topo := testTopology(5, 128)
	a, b := NewRing(topo), NewRing(topo)
	for _, k := range testKeys(10000) {
		ap, ar := a.Owners(k)
		bp, br := b.Owners(k)
		if ap != bp || ar != br {
			t.Fatalf("key %q: ring A owners (%d,%d), ring B owners (%d,%d)", k, ap, ar, bp, br)
		}
		if ap == ar {
			t.Fatalf("key %q: replica equals primary %d", k, ap)
		}
	}
}

// Node order in the topology file must not matter: placement hashes
// names, so a reordered file is the same ring.
func TestRingIgnoresNodeOrder(t *testing.T) {
	topo := testTopology(4, 128)
	rev := Topology{VNodes: topo.VNodes}
	for i := len(topo.Nodes) - 1; i >= 0; i-- {
		rev.Nodes = append(rev.Nodes, topo.Nodes[i])
	}
	a, b := NewRing(topo), NewRing(rev)
	for _, k := range testKeys(5000) {
		ap, _ := a.Owners(k)
		bp, _ := b.Owners(k)
		if topo.Nodes[ap].Name != rev.Nodes[bp].Name {
			t.Fatalf("key %q: owner %q with file order A, %q reversed",
				k, topo.Nodes[ap].Name, rev.Nodes[bp].Name)
		}
	}
}

// Minimal movement: adding one node to an N-node ring must remap only
// ~1/(N+1) of the keys (the arcs the new node takes over), and removing
// it must restore the original mapping exactly.
func TestRingMinimalMovementOnAddRemove(t *testing.T) {
	const vnodes, nkeys = 128, 100000
	for _, n := range []int{4, 8, 15} {
		base := testTopology(n, vnodes)
		grown := testTopology(n+1, vnodes) // superset: same first n names
		rBase, rGrown := NewRing(base), NewRing(grown)

		keys := testKeys(nkeys)
		moved := 0
		for _, k := range keys {
			bp, _ := rBase.Owners(k)
			gp, _ := rGrown.Owners(k)
			if base.Nodes[bp].Name != grown.Nodes[gp].Name {
				moved++
				// Every moved key must have moved TO the new node; anything
				// else is gratuitous reshuffling.
				if gp != n {
					t.Fatalf("n=%d key %q moved %s -> %s, not to the new node",
						n, k, base.Nodes[bp].Name, grown.Nodes[gp].Name)
				}
			}
		}
		frac := float64(moved) / float64(nkeys)
		ideal := 1 / float64(n+1)
		t.Logf("n=%d->%d: %.4f of keys moved (ideal %.4f)", n, n+1, frac, ideal)
		// Allow 1.5× the ideal share: vnode granularity makes the new
		// node's arc share noisy but nowhere near a full reshuffle.
		if frac > 1.5*ideal {
			t.Fatalf("n=%d: %.4f of keys moved on add, want <= %.4f", n, frac, 1.5*ideal)
		}
		if frac == 0 {
			t.Fatalf("n=%d: new node took no keys", n)
		}

		// Removing the node again is exactly the base ring.
		rBack := NewRing(base)
		for _, k := range keys[:2000] {
			bp, br := rBase.Owners(k)
			cp, cr := rBack.Owners(k)
			if bp != cp || br != cr {
				t.Fatalf("n=%d key %q: remap after remove (%d,%d) != (%d,%d)", n, k, cp, cr, bp, br)
			}
		}
	}
}

// The replica must be the clockwise successor node: when the primary is
// removed from the topology, the keys it owned must land on what was
// their replica — that is what makes failover reads hit warm data.
func TestRingReplicaIsSuccessor(t *testing.T) {
	const n = 6
	full := testTopology(n, 128)
	rFull := NewRing(full)

	// Drop node 2 and rebuild.
	var reduced Topology
	reduced.VNodes = full.VNodes
	for i, nd := range full.Nodes {
		if i != 2 {
			reduced.Nodes = append(reduced.Nodes, nd)
		}
	}
	rReduced := NewRing(reduced)

	for _, k := range testKeys(20000) {
		p, rep := rFull.Owners(k)
		if p != 2 {
			continue
		}
		np, _ := rReduced.Owners(k)
		if reduced.Nodes[np].Name != full.Nodes[rep].Name {
			t.Fatalf("key %q: primary node-02 removed, moved to %q, want its replica %q",
				k, reduced.Nodes[np].Name, full.Nodes[rep].Name)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		ok   bool
	}{
		{"empty", Topology{}, false},
		{"one node", Topology{Nodes: []Node{{Name: "a", Addr: "x:1"}}}, true},
		{"dup name", Topology{Nodes: []Node{{Name: "a", Addr: "x:1"}, {Name: "a", Addr: "x:2"}}}, false},
		{"missing addr", Topology{Nodes: []Node{{Name: "a"}}}, false},
		{"missing name", Topology{Nodes: []Node{{Addr: "x:1"}}}, false},
	}
	for _, c := range cases {
		err := c.topo.withDefaults().Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

// LoadTopology refuses a key the topology has no field for, by name: the
// "replication" of older files (every ring of two or more nodes keeps two
// copies) and misspellings alike.
func TestLoadTopologyRefusesUnknownKeys(t *testing.T) {
	const nodes = `"nodes":[{"name":"a","addr":"x:1"},{"name":"b","addr":"x:2"}]`
	for body, unknown := range map[string]string{
		`{"replication":1,` + nodes + `}`: "replication",
		`{"vnode":64,` + nodes + `}`:      "vnode",
		`{"vnodes":64,` + nodes + `}`:     "",
	} {
		path := filepath.Join(t.TempDir(), "topology.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		topo, err := LoadTopology(path)
		switch {
		case unknown == "" && (err != nil || topo.VNodes != 64 || len(topo.Nodes) != 2):
			t.Errorf("%s: loaded %+v, %v", body, topo, err)
		case unknown != "" && (err == nil || !strings.Contains(err.Error(), `"`+unknown+`"`)):
			t.Errorf("%s: error %v, want one naming %q", body, err, unknown)
		}
	}
}

// Single-node rings must answer with no replica rather than faking one.
func TestRingSingleNode(t *testing.T) {
	r := NewRing(testTopology(1, 128))
	p, rep := r.Owners("anything")
	if p != 0 || rep != -1 {
		t.Fatalf("single-node Owners = (%d,%d), want (0,-1)", p, rep)
	}
}
