package main

import (
	"math/rand"
	"os"
	"time"

	"avr/internal/store"
)

// clients is the closed-loop client count: nproc on this class of box is
// 2, and the generator shares those cores with the tiers.
const clients = 2

// env is one stood-up deployment of a serving workload.
type env struct {
	ds    *dataset
	top   target  // where the clients send
	nodes []*node // every avrd behind top
	fleet *fleet  // nil on the single-node workloads
	stop  func() error
}

// clientState is one client's position in its workload's op stream.
type clientState struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int // Zipf rank → key index
	pos  int   // ops or groups issued
}

// workload describes one serving workload: how its tiers are stood up
// and seeded, and what one iteration of a client's loop sends.
type workload struct {
	name    string
	queries bool // the clients check answers against query ground truth
	// start stands the tiers up under dir and seeds them by direct store
	// calls, cutting a step of set per key; everything it does is the
	// workload's set-up time.
	start func(dir string, ds *dataset, set *steps) (*env, error)
	// step sends one iteration: one op, or on cluster_batch one
	// mput → mget → 8 gets cycle.
	step func(c *caller, e *env, st *clientState)
	// primary and secondary are the op names behind primary_ms and
	// secondary_ms.
	primary, secondary []string
	primaryWhat        string
	secondaryWhat      string
}

// allClasses returns an op's names over every key class.
func allClasses(op string) []string {
	return []string{op, op + "_noise", op + "64", op + "64_noise"}
}

// half returns client id's half of the key space.
func half(ds *dataset, id int) (lo, n int) {
	n = len(ds.keys) / clients
	return id * n, n
}

func singleNode(ds *dataset, n *node) *env {
	return &env{
		ds:    ds,
		top:   target{base: n.base, tier: "avrd", rung: rungClient},
		nodes: []*node{n},
		stop:  n.stop,
	}
}

var servingWorkloads = []*workload{
	// ingest: encode, frame, append and compaction do nearly all the
	// work; nothing decodes and no router runs. The noise keys keep the
	// lossless-fallback path in the mix.
	{
		name: "ingest",
		start: func(dir string, ds *dataset, set *steps) (*env, error) {
			// avrd defaults except 16 MiB segments and a 2 s compactor, so
			// the run rolls several segments and completes several
			// compaction cycles.
			cfg := avrdStore(dir)
			cfg.SegmentTargetBytes = 16 << 20
			cfg.CompactEvery = 2 * time.Second
			n, err := startNode("avrd", cfg)
			if err != nil {
				return nil, err
			}
			// Seeded, so that every put of the run is an overwrite and
			// set-up does the system's work, not only the generator's.
			if err := seedDirect(n.st, ds, set); err != nil {
				n.stop()
				return nil, err
			}
			return singleNode(ds, n), nil
		},
		// Each client puts its half of the key space in order, wrapping;
		// every put overwrites.
		step: func(c *caller, e *env, st *clientState) {
			lo, n := half(e.ds, st.id)
			c.put(e.top, &e.ds.keys[lo+st.pos%n])
			st.pos++
		},
		primary: []string{"put", "put64"}, primaryWhat: "PUT of a compressible key",
		secondary: []string{"put_noise", "put64_noise"}, secondaryWhat: "PUT of a noise key (lossless fallback)",
	},
	// read_cold: pread, CRC, decode and response write dominate and the
	// cache mostly misses and churns; no encode, no router. The bypass
	// workload for a cache change, the exercise workload for decode,
	// segment-read and query changes.
	{
		name:    "read_cold",
		queries: true,
		start: func(dir string, ds *dataset, set *steps) (*env, error) {
			// Seed by direct store calls, close, and reopen: the recovery
			// scan is part of set-up. The cache holds 1 MiB against about
			// 13 MiB of summary lines, and prefetch is off.
			cfg := avrdStore(dir)
			cfg.CacheBytes = 1 << 20
			cfg.Prefetch = false
			st, err := store.Open(cfg)
			if err != nil {
				return nil, err
			}
			if err := seedDirect(st, ds, set); err != nil {
				st.Close()
				return nil, err
			}
			if err := st.Close(); err != nil {
				return nil, err
			}
			n, err := startNode("avrd", cfg)
			if err != nil {
				return nil, err
			}
			return singleNode(ds, n), nil
		},
		// 80 % GET, 20 % query rotating aggregate → filter → downsample,
		// on uniform random keys. The mix is a fixed cycle of five so op
		// counts repeat from run to run.
		step: func(c *caller, e *env, st *clientState) {
			k := &e.ds.keys[st.rng.Intn(len(e.ds.keys))]
			if st.pos%5 == 4 {
				c.query(e.top, k, (st.pos/5)%3)
			} else {
				c.get(e.top, k, false)
			}
			st.pos++
		},
		primary: allClasses("get"), primaryWhat: "GET",
		secondary: queryNames[:], secondaryWhat: "query (aggregate, filter, downsample pooled)",
	},
	// serve_mixed: cache hits do most of the work and decode and disk
	// little, the mirror of read_cold. Writes and compaction run beside
	// the reads on one store, so a read-side gain paid for by writers or
	// by lock hold time shows here.
	{
		name:    "serve_mixed",
		queries: true,
		start: func(dir string, ds *dataset, set *steps) (*env, error) {
			cfg := avrdStore(dir)
			cfg.CompactEvery = 2 * time.Second
			n, err := startNode("avrd", cfg)
			if err != nil {
				return nil, err
			}
			if err := seedDirect(n.st, ds, set); err != nil {
				n.stop()
				return nil, err
			}
			return singleNode(ds, n), nil
		},
		// A fixed cycle of twenty: 18 GET, 1 overwrite PUT (which
		// invalidates that key's line), 1 aggregate query; keys Zipf(1.1).
		step: func(c *caller, e *env, st *clientState) {
			k := &e.ds.keys[st.perm[st.zipf.Uint64()]]
			switch st.pos % 20 {
			case 9:
				c.put(e.top, k)
			case 19:
				c.query(e.top, k, queryAggregate)
			default:
				c.get(e.top, k, false)
			}
			st.pos++
		},
		primary: allClasses("get"), primaryWhat: "GET",
		secondary: allClasses("put"), secondaryWhat: "overwrite PUT",
	},
	// cluster_batch: the only workload where internal/cluster runs. Ring
	// planning, fan-out, double writes and JSON+base64 batch framing do
	// most of the work; the single-key gets beside the batches separate
	// the router hop from the framing cost.
	{
		name: "cluster_batch",
		start: func(dir string, ds *dataset, set *steps) (*env, error) {
			f, err := startFleet(dir, 3, avrdStore)
			if err != nil {
				return nil, err
			}
			// Seed both owners of every key directly, so every key reads
			// back from the first op on.
			for i := range ds.keys {
				for _, n := range f.owners(ds.keys[i].name) {
					if err := putDirect(n.st, &ds.keys[i]); err != nil {
						f.stop()
						return nil, err
					}
				}
				set.cut()
			}
			return &env{
				ds:    ds,
				top:   target{base: f.base, tier: "router", rung: rungClient},
				nodes: f.shards,
				fleet: f,
				stop:  f.stop,
			}, nil
		},
		// Each client cycles mput of 8 keys → mget of the same 8 → 8
		// single-key GETs through the router, walking its half of the key
		// space in groups of 8.
		step: func(c *caller, e *env, st *clientState) {
			lo, n := half(e.ds, st.id)
			g := (st.pos * batchKeys) % n
			ks := make([]*keyInfo, 0, batchKeys)
			for i := 0; i < batchKeys && g+i < n; i++ {
				ks = append(ks, &e.ds.keys[lo+g+i])
			}
			c.mput(e.top, ks)
			c.mget(e.top, ks, false)
			for _, k := range ks {
				c.get(e.top, k, false)
			}
			st.pos++
		},
		primary: []string{"mget"}, primaryWhat: "mget of 8 keys",
		secondary: []string{"mput"}, secondaryWhat: "mput of 8 keys",
	},
}

func findWorkload(name string) *workload {
	for _, w := range servingWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// workloadNames lists all five workloads in run order.
func workloadNames() []string {
	var out []string
	for _, w := range servingWorkloads {
		out = append(out, w.name)
	}
	return append(out, "sim_matrix")
}

// newClientState seeds client id's stream from the run seed.
func newClientState(seed uint64, id, nkeys int) *clientState {
	rng := rand.New(rand.NewSource(int64(seed*7919 + uint64(id) + 1)))
	return &clientState{
		id:   id,
		rng:  rng,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(nkeys-1)),
		// One permutation per run, shared by both clients: they contend
		// for the same hot keys.
		perm: rand.New(rand.NewSource(int64(seed))).Perm(nkeys),
	}
}

// runDir makes a fresh directory for one stood-up deployment.
func runDir(workdir, name string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workdir, name+"-")
}
