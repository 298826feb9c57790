// Multicore simulation: the paper's 8-core CMP (Table 1) with private
// L1/L2 per core and one shared LLC design in front of shared DRAM. Each
// core is a tile, the slice's own core model: core 0 is the tile of the
// System that holds the shared LLC, and that System's Flush and Finish
// drain and count every core.
//
// Cores execute as goroutines under a deterministic scheduler: exactly
// one core runs at a time, in quanta of a fixed number of memory
// operations, and the scheduler always grants the quantum to the
// runnable core with the smallest local clock (ties by core id). Shared
// structures therefore need no locking and every run is reproducible.
//
// Coherence is modelled at barrier granularity (release consistency):
// when the workload synchronises, each core's private caches are drained
// and invalidated, and all clocks advance to the barrier time. Between
// barriers the paper's SPMD workloads touch disjoint data, so this
// captures the coherence traffic that matters without a full protocol.
package sim

import "fmt"

// quantumOps is the number of memory operations a core runs per
// scheduler grant. Smaller values interleave more finely (and slow the
// simulation); clock skew between cores is bounded by one quantum's
// work.
const quantumOps = 64

// Multi is an N-core system sharing one LLC design and DRAM.
type Multi struct {
	Cfg    Config
	NCores int
	shared *System // holds space, DRAM, LLC and every core's tile

	cores   []*CoreCtx
	release chan schedEvent
}

type schedEvent struct {
	id      int
	done    bool // core finished its workload
	barrier bool // core reached a barrier
}

// CoreCtx is one core's view of the multicore system: the timed memory
// interface workload shards compute through.
type CoreCtx struct {
	m  *Multi
	id int
	t  *tile

	grant   chan struct{}
	opsLeft int
	atBar   bool
	done    bool
}

// NewMulti builds an n-core system. The configuration's LLC is shared
// (not sliced), so callers typically pass a config with the full Table 1
// capacities rather than a per-core slice.
func NewMulti(cfg Config, n int) *Multi {
	if n < 1 {
		panic("sim: need at least one core")
	}
	m := &Multi{
		Cfg:     cfg,
		NCores:  n,
		shared:  New(cfg),
		release: make(chan schedEvent),
	}
	for i := 1; i < n; i++ {
		t := newTile(cfg, m.shared.llc)
		m.shared.tiles = append(m.shared.tiles, &t)
	}
	for i, t := range m.shared.tiles {
		m.cores = append(m.cores, &CoreCtx{m: m, id: i, t: t, grant: make(chan struct{})})
	}
	return m
}

// Shared returns the shared system (address space, DRAM, LLC) for
// setup and statistics.
func (m *Multi) Shared() *System { return m.shared }

// Prime forwards to the shared system's input-priming step.
func (m *Multi) Prime() { m.shared.Prime() }

// Run executes body once per core, scheduled deterministically, and
// returns when every core has finished.
func (m *Multi) Run(body func(c *CoreCtx)) {
	for _, c := range m.cores {
		c.done = false
		c.atBar = false
		go func(c *CoreCtx) {
			<-c.grant
			body(c)
			c.done = true
			m.release <- schedEvent{id: c.id, done: true}
		}(c)
	}
	active := m.NCores
	for active > 0 {
		// Grant the runnable core with the smallest clock.
		next := -1
		for _, c := range m.cores {
			if c.done || c.atBar {
				continue
			}
			if next < 0 || c.Now() < m.cores[next].Now() {
				next = c.id
			}
		}
		if next < 0 {
			// Everyone still alive is parked at the barrier: release it.
			m.openBarrier()
			continue
		}
		c := m.cores[next]
		c.opsLeft = quantumOps
		c.grant <- struct{}{}
		ev := <-m.release
		if ev.done {
			active--
			// A finishing core at a barrier would deadlock the others;
			// SPMD bodies must keep barrier counts aligned.
		}
		if ev.barrier {
			m.cores[ev.id].atBar = true
		}
	}
}

// openBarrier releases every core waiting at the barrier: private caches
// are drained (barrier-flush coherence) and all clocks advance to the
// latest participant.
func (m *Multi) openBarrier() {
	var maxNow uint64
	for _, c := range m.cores {
		if !c.done && c.Now() > maxNow {
			maxNow = c.Now()
		}
	}
	for _, c := range m.cores {
		if c.done || !c.atBar {
			continue
		}
		t := c.t
		now := t.core.Now()
		t.l1.FlushAll(func(a uint64) { t.fillL2Dirty(now, a) })
		t.l2.FlushAll(func(a uint64) { t.llc.WriteBack(now, a) })
		t.core.AdvanceTo(maxNow)
		c.atBar = false
	}
}

// yieldPoint is called before every timed operation: it hands the token
// back to the scheduler when the quantum is exhausted.
func (c *CoreCtx) yieldPoint() {
	c.opsLeft--
	if c.opsLeft <= 0 {
		c.m.release <- schedEvent{id: c.id}
		<-c.grant
		c.opsLeft = quantumOps
	}
}

// Barrier synchronises all cores: the core parks until every live core
// has reached the barrier, then resumes with drained private caches at
// the barrier time.
func (c *CoreCtx) Barrier() {
	c.m.release <- schedEvent{id: c.id, barrier: true}
	<-c.grant
	c.opsLeft = quantumOps
}

// ID returns the core's index.
func (c *CoreCtx) ID() int { return c.id }

// N returns the number of cores.
func (c *CoreCtx) N() int { return c.m.NCores }

// Now returns the core's local clock.
func (c *CoreCtx) Now() uint64 { return c.t.core.Now() }

// Compute accounts n non-memory instructions.
func (c *CoreCtx) Compute(n uint64) { c.t.core.Compute(n) }

// LoadF32 performs a timed float load.
func (c *CoreCtx) LoadF32(addr uint64) float32 {
	c.yieldPoint()
	c.t.access(addr, false)
	return c.m.shared.Space.LoadF32(addr)
}

// StoreF32 performs a timed float store.
func (c *CoreCtx) StoreF32(addr uint64, v float32) {
	c.yieldPoint()
	c.t.access(addr, true)
	c.m.shared.Space.StoreF32(addr, v)
}

// Load32 performs a timed raw load.
func (c *CoreCtx) Load32(addr uint64) uint32 {
	c.yieldPoint()
	c.t.access(addr, false)
	return c.m.shared.Space.Load32(addr)
}

// Store32 performs a timed raw store.
func (c *CoreCtx) Store32(addr uint64, v uint32) {
	c.yieldPoint()
	c.t.access(addr, true)
	c.m.shared.Space.Store32(addr, v)
}

// MultiResult aggregates a multicore run.
type MultiResult struct {
	Design       Design
	NCores       int
	Cycles       uint64   // slowest core
	Instructions uint64   // total across cores
	PerCore      []uint64 // each core's final clock
	Result       Result   // System.Finish over every core
}

// Finish drains every core's private caches and the shared hierarchy,
// then collects statistics: the shared System's Result over all cores,
// plus each core's clock.
func (m *Multi) Finish(benchmark string) MultiResult {
	res := m.shared.Finish(benchmark)
	r := MultiResult{
		Design:       m.Cfg.Design,
		NCores:       m.NCores,
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		Result:       res,
	}
	for _, c := range m.cores {
		r.PerCore = append(r.PerCore, c.Now())
	}
	return r
}

// String describes the system.
func (m *Multi) String() string {
	return fmt.Sprintf("%d-core %s", m.NCores, m.Cfg.Design)
}
