// Package cpu implements an interval-based out-of-order core timing model
// in the style of Genbrugge et al. (HPCA'10), the abstraction the paper's
// simulator uses (§4.1).
//
// Between miss events the core retires instructions at its issue width.
// Long-latency memory accesses (anything beyond the L1) stall the core,
// but misses issued within the same reorder-buffer window overlap
// (memory-level parallelism): the second miss's latency is hidden behind
// the first, and the core pays only the non-overlapped tail.
package cpu

import (
	"fmt"
	"math/bits"
)

// Config describes the core.
type Config struct {
	// IssueWidth is the sustained issue/commit width (instructions per
	// cycle in the absence of misses), a power of two.
	IssueWidth int
	// ROBDepth is the reorder-buffer depth: two misses fewer than
	// ROBDepth instructions apart overlap.
	ROBDepth int
	// L1HitCycles is the latency hidden completely by the pipeline.
	L1HitCycles int
}

// DefaultConfig matches Table 1: 4-wide out-of-order at 3.2 GHz with a
// 128-entry ROB.
func DefaultConfig() Config {
	return Config{IssueWidth: 4, ROBDepth: 128, L1HitCycles: 1}
}

// Core tracks one core's logical time.
type Core struct {
	cfg Config

	// widthShift and widthMask divide by IssueWidth: Compute runs once per
	// simulated kernel step, and a shift and a mask cost less than a
	// division.
	widthShift uint
	widthMask  uint64

	now       uint64 // core-local cycle count
	instFrac  uint64 // sub-cycle instruction credit (in instructions)
	instsDone uint64

	// Interval bookkeeping: misses inside one ROB window share an issue
	// anchor, so their latencies overlap.
	anchorInst       uint64 // instruction count at the window anchor
	anchorIssue      uint64 // core time when the window's first miss issued
	lastMissComplete uint64 // latest completion among the window's misses

	memReads   uint64
	memWrites  uint64
	stallCycle uint64
	latSum     uint64 // total load latency for AMAT
}

// New creates a core. A width below 1 is taken as 1; a width that is
// not a power of two panics.
func New(cfg Config) *Core {
	if cfg.IssueWidth < 1 {
		cfg.IssueWidth = 1
	}
	if cfg.IssueWidth&(cfg.IssueWidth-1) != 0 {
		panic(fmt.Sprintf("cpu: issue width %d is not a power of two", cfg.IssueWidth))
	}
	if cfg.ROBDepth < 1 {
		cfg.ROBDepth = 1
	}
	return &Core{
		cfg:        cfg,
		widthShift: uint(bits.TrailingZeros(uint(cfg.IssueWidth))),
		widthMask:  uint64(cfg.IssueWidth - 1),
	}
}

// Now returns the core's current cycle.
func (c *Core) Now() uint64 { return c.now }

// Instructions returns retired instructions.
func (c *Core) Instructions() uint64 { return c.instsDone }

// MemReads returns the demand load count.
func (c *Core) MemReads() uint64 { return c.memReads }

// LoadLatencySum returns the accumulated demand-load latency (for AMAT).
func (c *Core) LoadLatencySum() uint64 { return c.latSum }

// Compute retires n non-memory instructions at the issue width.
func (c *Core) Compute(n uint64) {
	c.instsDone += n
	total := c.instFrac + n
	c.now += total >> c.widthShift
	c.instFrac = total & c.widthMask
}

// OnLoad accounts a demand load whose memory-system latency (from issue
// at the core's current time) is lat cycles. Latencies at or below the L1
// hit cost are pipeline-hidden. Longer latencies stall the core, with MLP
// overlap for misses inside the same ROB window.
func (c *Core) OnLoad(lat uint64) {
	c.memReads++
	c.instsDone++
	c.latSum += lat
	if lat <= uint64(c.cfg.L1HitCycles) {
		return
	}
	var complete uint64
	if c.instsDone-c.anchorInst < uint64(c.cfg.ROBDepth) {
		// Same ROB window as the previous miss: this one effectively
		// issued when the window opened, hiding behind it.
		complete = c.anchorIssue + lat
		if c.lastMissComplete > complete {
			complete = c.lastMissComplete
		}
	} else {
		// New window.
		c.anchorInst = c.instsDone
		c.anchorIssue = c.now
		complete = c.now + lat
	}
	if complete > c.lastMissComplete {
		c.lastMissComplete = complete
	}
	if complete > c.now {
		c.stallCycle += complete - c.now
		c.now = complete
	}
}

// OnStore accounts a demand store. Stores retire through the write buffer
// and do not stall the core; the memory system still observes them at the
// core's current time.
func (c *Core) OnStore() {
	c.memWrites++
	c.instsDone++
}

// AdvanceTo moves the core's clock forward to cycle (a barrier: the core
// waits for slower peers). Earlier times are ignored.
func (c *Core) AdvanceTo(cycle uint64) {
	if cycle > c.now {
		c.stallCycle += cycle - c.now
		c.now = cycle
	}
}

// IPC returns retired instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.now == 0 {
		return 0
	}
	return float64(c.instsDone) / float64(c.now)
}
