package cpu

import (
	"testing"
	"testing/quick"
)

// TestComputeAtIssueWidth holds Compute's shift and mask to a division
// by the width, at every width the tree configures.
func TestComputeAtIssueWidth(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		c := New(Config{IssueWidth: width, ROBDepth: 128, L1HitCycles: 1})
		c.Compute(400)
		if c.Now() != uint64(400/width) {
			t.Errorf("400 insts at width %d = %d cycles, want %d", width, c.Now(), 400/width)
		}
		insts := uint64(400)
		for n := uint64(0); n < 40; n++ {
			c.Compute(n)
			insts += n
			if c.Now() != insts/uint64(width) || c.instFrac != insts%uint64(width) {
				t.Fatalf("width %d after %d insts: now %d credit %d, want %d and %d",
					width, insts, c.Now(), c.instFrac, insts/uint64(width), insts%uint64(width))
			}
		}
		if c.Instructions() != insts {
			t.Errorf("width %d: instructions = %d, want %d", width, c.Instructions(), insts)
		}
	}
}

func TestNewRefusesWidthNotPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("width 3 accepted")
		}
	}()
	New(Config{IssueWidth: 3, ROBDepth: 128, L1HitCycles: 1})
}

func TestComputeFractionalCredit(t *testing.T) {
	c := New(Config{IssueWidth: 4, ROBDepth: 128, L1HitCycles: 1})
	c.Compute(2)
	if c.Now() != 0 {
		t.Errorf("2 insts should not advance a 4-wide core: %d", c.Now())
	}
	c.Compute(2)
	if c.Now() != 1 {
		t.Errorf("4 insts = 1 cycle, got %d", c.Now())
	}
}

func TestL1HitIsFree(t *testing.T) {
	c := New(DefaultConfig())
	c.OnLoad(1)
	if c.Now() != 0 || c.StallCycles() != 0 {
		t.Errorf("L1 hit stalled the core: now=%d", c.Now())
	}
	if c.MemReads() != 1 {
		t.Error("load not counted")
	}
}

func TestMissStalls(t *testing.T) {
	c := New(DefaultConfig())
	c.Compute(400) // now = 100
	c.OnLoad(200)
	if c.Now() != 300 {
		t.Errorf("miss completion = %d, want 300", c.Now())
	}
	if c.StallCycles() != 200 {
		t.Errorf("stall = %d, want 200", c.StallCycles())
	}
}

func TestMLPOverlap(t *testing.T) {
	// Two misses close together in the instruction stream overlap: total
	// stall is ~one latency, not two.
	c := New(Config{IssueWidth: 4, ROBDepth: 128, L1HitCycles: 1})
	c.OnLoad(200)
	c.Compute(10) // well inside the ROB window
	c.OnLoad(200)
	// The second miss effectively issued at the same time as the first:
	// completion ≈ 200 + a couple of cycles of compute, not 400.
	if c.Now() > 210 {
		t.Errorf("overlapped misses took %d cycles, want ≈200", c.Now())
	}
}

func TestNoOverlapBeyondROB(t *testing.T) {
	c := New(Config{IssueWidth: 4, ROBDepth: 16, L1HitCycles: 1})
	c.OnLoad(200)
	c.Compute(100) // 100 insts > 16-entry ROB: window closed
	c.OnLoad(200)
	// Two full stalls: 200 + 25 compute + 200.
	if c.Now() < 400 {
		t.Errorf("independent misses took only %d cycles", c.Now())
	}
	if c.StallCycles() != 400 {
		t.Errorf("stall = %d, want 400", c.StallCycles())
	}
}

func TestStoresDoNotStall(t *testing.T) {
	c := New(DefaultConfig())
	c.OnStore()
	c.OnStore()
	if c.Now() != 0 {
		t.Errorf("stores stalled the core: %d", c.Now())
	}
	if c.MemWrites() != 2 {
		t.Errorf("writes = %d", c.MemWrites())
	}
}

func TestAMATSum(t *testing.T) {
	c := New(DefaultConfig())
	c.OnLoad(1)
	c.OnLoad(15)
	c.OnLoad(200)
	if c.LoadLatencySum() != 216 {
		t.Errorf("latency sum = %d, want 216", c.LoadLatencySum())
	}
}

func TestIPC(t *testing.T) {
	c := New(Config{IssueWidth: 2, ROBDepth: 8, L1HitCycles: 1})
	if c.IPC() != 0 {
		t.Error("IPC of idle core must be 0")
	}
	c.Compute(200) // 100 cycles
	got := c.IPC()
	if got < 1.99 || got > 2.01 {
		t.Errorf("IPC = %v, want 2", got)
	}
}

func TestDefaultsClamped(t *testing.T) {
	c := New(Config{})
	c.Compute(10)
	if c.Now() != 10 {
		t.Errorf("zero-config core should be width 1: %d", c.Now())
	}
}

func TestTimeMonotoneProperty(t *testing.T) {
	// Property: time never goes backwards under any interleaving.
	f := func(ops []uint16) bool {
		c := New(DefaultConfig())
		prev := uint64(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				c.Compute(uint64(op % 50))
			case 1:
				c.OnLoad(uint64(op % 300))
			case 2:
				c.OnStore()
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStallNeverExceedsLatencyProperty(t *testing.T) {
	// Property: total stall cycles never exceed total miss latency.
	f := func(lats []uint16) bool {
		c := New(DefaultConfig())
		var total uint64
		for _, l := range lats {
			lat := uint64(l % 500)
			c.OnLoad(lat)
			c.Compute(uint64(l % 7))
			if lat > 1 {
				total += lat
			}
		}
		return c.StallCycles() <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdvanceTo(t *testing.T) {
	c := New(DefaultConfig())
	c.Compute(400) // 100 cycles
	c.AdvanceTo(500)
	if c.Now() != 500 {
		t.Errorf("AdvanceTo: now = %d, want 500", c.Now())
	}
	if c.StallCycles() != 400 {
		t.Errorf("barrier wait not counted as stall: %d", c.StallCycles())
	}
	c.AdvanceTo(100) // earlier: ignored
	if c.Now() != 500 {
		t.Errorf("AdvanceTo went backwards: %d", c.Now())
	}
}

// MemWrites returns the demand store count.
func (c *Core) MemWrites() uint64 { return c.memWrites }

// StallCycles returns cycles spent stalled on memory.
func (c *Core) StallCycles() uint64 { return c.stallCycle }
