package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"avr/internal/cluster"
	"avr/internal/server"
	"avr/internal/store"
)

// The tiers run in this process over real loopback listeners: the same
// server.New(...).Serve / cluster.New(...).Serve / store.Open calls avrd
// and avrrouter make, so a request crosses the kernel's TCP stack and
// net/http exactly as it does between processes.

// avrdStore returns avrd's default store configuration for dir: the
// values cmd/avrd passes when no -store-* flag is given.
func avrdStore(dir string) store.Config {
	return store.Config{
		Dir:          dir,
		T1:           server.QuantizeT1(0),
		CompactEvery: 30 * time.Second,
		CacheBytes:   64 << 20,
		Prefetch:     true,
	}
}

// node is one in-process avrd: a store, a server over it and the
// listener it serves.
type node struct {
	name   string
	st     *store.Store
	srv    *server.Server
	base   string // http://host:port
	addr   string
	served chan error
}

// startNode opens a store and serves avrd over it on an ephemeral
// loopback port.
func startNode(name string, cfg store.Config) (*node, error) {
	st, err := store.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("opening store for %s: %w", name, err)
	}
	n, err := serveNode(name, st)
	if err != nil {
		st.Close()
		return nil, err
	}
	return n, nil
}

// serveNode serves avrd (default server configuration) over an open
// store.
func serveNode(name string, st *store.Store) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for %s: %w", name, err)
	}
	n := &node{
		name:   name,
		st:     st,
		srv:    server.New(server.Config{Store: st}),
		addr:   ln.Addr().String(),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// drainTimeout bounds a tier's graceful shutdown. The clients have
// stopped before any tier is stopped, so nothing is in flight; what can
// remain is a keep-alive connection the router's pool dialled and never
// used, which net/http's Shutdown counts as active for its first 5 s.
// That is not worth waiting for: the listener is closed either way.
const drainTimeout = time.Second

// stop drains the server, waits for Serve to return and closes the
// store (which fsyncs the active segment — the store's default flush
// policy is fsync on segment roll and on close).
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		err = nil
	}
	if serr := <-n.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// fleet is an in-process cluster: shards plus a router with
// replication 2 and the router cache off.
type fleet struct {
	shards []*node
	router *cluster.Router
	ring   *cluster.Ring
	base   string
	served chan error
}

// startFleet starts nShards avrd shards (each its own directory under
// dir, configured by shardCfg) and a router in front of them.
func startFleet(dir string, nShards int, shardCfg func(dir string) store.Config) (*fleet, error) {
	f := &fleet{served: make(chan error, 1)}
	var topo cluster.Topology
	for i := 0; i < nShards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		n, err := startNode(name, shardCfg(filepath.Join(dir, name)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, n)
		topo.Nodes = append(topo.Nodes, cluster.Node{Name: name, Addr: n.addr})
	}
	ro, err := cluster.New(cluster.Config{Topology: topo})
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	f.router = ro
	f.ring = cluster.NewRing(topo)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("listening for router: %w", err)
	}
	f.base = "http://" + ln.Addr().String()
	go func() { f.served <- ro.Serve(ln) }()
	return f, nil
}

// owners returns the shards holding key: primary first, then the
// replica.
func (f *fleet) owners(key string) []*node {
	p, r := f.ring.Owners(key)
	out := []*node{f.shards[p]}
	if r >= 0 {
		out = append(out, f.shards[r])
	}
	return out
}

// stop shuts the router down first, so no leg is in flight when the
// shards drain.
func (f *fleet) stop() error {
	var err error
	if f.base != "" {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		err = f.router.Shutdown(ctx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			err = nil
		}
		if serr := <-f.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	} else if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.shards {
		if serr := n.stop(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// seedDirect stores every key of ds into st by direct store.Put32/Put64
// calls, the way avrstore pack does, cutting a step of set per key.
func seedDirect(st *store.Store, ds *dataset, set *steps) error {
	for i := range ds.keys {
		if err := putDirect(st, &ds.keys[i]); err != nil {
			return err
		}
		set.cut()
	}
	return nil
}

func putDirect(st *store.Store, k *keyInfo) error {
	var err error
	if k.width == 32 {
		_, err = st.Put32(k.name, k.floats32())
	} else {
		_, err = st.Put64(k.name, k.floats64())
	}
	if err != nil {
		return fmt.Errorf("seeding %s: %w", k.name, err)
	}
	return nil
}
