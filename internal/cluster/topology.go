// Package cluster is the horizontal-scale tier over avrd: a consistent-
// hash ring shards store keys across N nodes (static JSON topology, no
// consensus), a router tier proxies single-key and batched multi-key
// store traffic with replication factor 2 and read-any semantics, and a
// health prober ejects and readmits nodes by polling /readyz.
//
// Read-any is safe by construction: every value a node serves was
// encoded at the store's quantized t1, so whichever replica answers,
// the client's bound check passes — approximate data tolerates replica
// skew the same way it tolerates lossy encoding. The router therefore
// never needs read repair or quorums: it tries the primary, falls
// through to the replica on error or timeout, and the error bound does
// the rest.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Node is one avrd instance in the topology.
type Node struct {
	// Name identifies the node in the ring. Ring placement hashes the
	// name, not the address, so a node can move hosts (addr change)
	// without remapping any keys.
	Name string `json:"name"`
	// Addr is the node's host:port.
	Addr string `json:"addr"`
}

// Topology is the static cluster description the router loads at
// startup — a JSON file, versioned alongside deployment config. No
// consensus: every router loading the same file computes the same
// ring, which is all the coordination sharded approximate storage
// needs.
type Topology struct {
	// VNodes is the number of virtual nodes each node projects onto the
	// ring (default 128). More vnodes smooth the key balance at the cost
	// of a larger ring table.
	VNodes int `json:"vnodes,omitempty"`
	// Nodes lists the cluster members. Order does not matter — placement
	// is by name hash.
	Nodes []Node `json:"nodes"`
}

// withDefaults fills unset fields.
func (t Topology) withDefaults() Topology {
	if t.VNodes <= 0 {
		t.VNodes = 128
	}
	return t
}

// Validate checks the topology is usable.
func (t Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("cluster: topology has no nodes")
	}
	seen := make(map[string]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.Name == "" || n.Addr == "" {
			return fmt.Errorf("cluster: node needs both name and addr (got name=%q addr=%q)", n.Name, n.Addr)
		}
		if seen[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	return nil
}

// LoadTopology reads and validates a topology JSON file. A key the
// file should not have (a misspelling, or the "replication" of older
// files: every ring of two or more nodes keeps two copies) fails the
// load by name.
func LoadTopology(path string) (Topology, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("cluster: reading topology: %w", err)
	}
	var t Topology
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("cluster: bad topology %s: %w", path, err)
	}
	t = t.withDefaults()
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}
