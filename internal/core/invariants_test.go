package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"avr/internal/compress"
	"avr/internal/dram"
	"avr/internal/mem"
)

// checkInvariants validates the decoupled LLC's structural invariants
// (Fig. 6): every back-pointer resolves to a valid tag, the per-tag UCL
// and CMS counts match the entries that point at it, and a block's CMS
// entries are exactly {0..cmsCount-1} at consecutive sets. A full scan
// of the BPA is also the truth the tags' forward pointers are held to:
// each valid tag's cmsWay[0:cmsCount], uclMask and uclWay name exactly
// the entries the scan finds pointing back at it, and an invalid tag
// names no UCL.
func (l *LLC) checkInvariants() error {
	type key struct {
		ti  uint64
		way uint8
	}
	// What the scan finds per block: the way of each CMS by subblock
	// index, and of each UCL by block offset.
	cmsWays := map[key]map[uint8]int{}
	uclWays := map[key]map[int]int{}

	for s := 0; s < l.sets; s++ {
		for w := 0; w < l.cfg.Ways; w++ {
			e := &l.bpa[s*l.cfg.Ways+w]
			if !e.valid {
				continue
			}
			var ti uint64
			if e.isCMS {
				ti = (uint64(s) - uint64(e.clID) + uint64(l.sets)) & uint64(l.sets-1)
			} else {
				ti = uint64(e.clID)<<(l.idxBits-4) | uint64(s)>>4
			}
			tag := &l.tags[int(ti)*l.cfg.Ways+int(e.tagWay)]
			if !tag.valid {
				return fmt.Errorf("set %d way %d: %v entry points to invalid tag (ti=%d way=%d)",
					s, w, map[bool]string{true: "CMS", false: "UCL"}[e.isCMS], ti, e.tagWay)
			}
			k := key{ti, e.tagWay}
			if e.isCMS {
				if cmsWays[k] == nil {
					cmsWays[k] = map[uint8]int{}
				}
				if _, dup := cmsWays[k][e.clID]; dup {
					return fmt.Errorf("duplicate CMS %d for block ti=%d", e.clID, ti)
				}
				cmsWays[k][e.clID] = w
				if int(e.clID) >= int(tag.cmsCount) {
					return fmt.Errorf("CMS %d beyond cmsCount %d (ti=%d)", e.clID, tag.cmsCount, ti)
				}
			} else {
				if uclWays[k] == nil {
					uclWays[k] = map[int]int{}
				}
				if _, dup := uclWays[k][s&0xF]; dup {
					return fmt.Errorf("duplicate UCL at offset %d for block ti=%d", s&0xF, ti)
				}
				uclWays[k][s&0xF] = w
			}
		}
	}
	for ti := 0; ti < l.sets; ti++ {
		for w := 0; w < l.cfg.Ways; w++ {
			tag := &l.tags[ti*l.cfg.Ways+w]
			if !tag.valid {
				if tag.uclMask != 0 {
					return fmt.Errorf("invalid tag ti=%d way=%d: uclMask=%#x", ti, w, tag.uclMask)
				}
				continue
			}
			k := key{uint64(ti), uint8(w)}
			if got := len(uclWays[k]); got != int(tag.uclCount) {
				return fmt.Errorf("tag ti=%d way=%d: uclCount=%d but %d UCL entries",
					ti, w, tag.uclCount, got)
			}
			if got := len(cmsWays[k]); got != int(tag.cmsCount) {
				return fmt.Errorf("tag ti=%d way=%d: cmsCount=%d but %d CMS entries",
					ti, w, tag.cmsCount, got)
			}
			// With the count equal and every clID unique and below it,
			// the scan found CMS i for every i < cmsCount.
			for i := 0; i < int(tag.cmsCount); i++ {
				if got, want := int(tag.cmsWay[i]), cmsWays[k][uint8(i)]; got != want {
					return fmt.Errorf("tag ti=%d way=%d: cmsWay[%d]=%d, CMS %d is in way %d",
						ti, w, i, got, i, want)
				}
			}
			if got := bits.OnesCount16(tag.uclMask); got != len(uclWays[k]) {
				return fmt.Errorf("tag ti=%d way=%d: uclMask=%#x names %d UCLs, the BPA holds %d",
					ti, w, tag.uclMask, got, len(uclWays[k]))
			}
			for cl, want := range uclWays[k] {
				if tag.uclMask&(1<<cl) == 0 || int(tag.uclWay[cl]) != want {
					return fmt.Errorf("tag ti=%d way=%d: UCL at offset %d is in way %d, uclMask=%#x uclWay=%d",
						ti, w, cl, want, tag.uclMask, tag.uclWay[cl])
				}
			}
		}
	}
	return nil
}

// TestInvariantFuzz drives long random request/writeback streams through
// the AVR LLC (across configurations) and validates the structural
// invariants periodically and at the end.
func TestInvariantFuzz(t *testing.T) {
	configs := []func(*Config){
		nil,
		func(c *Config) { c.LazyEvictions = false },
		func(c *Config) { c.SkipHistory = false },
		func(c *Config) { c.PFEEnabled = false },
		func(c *Config) { c.ApproxEnabled = false },
		func(c *Config) { c.Thresholds = compress.Thresholds{T1: 1.0 / 512, T2: 1.0 / 1024} },
	}
	for ci, mod := range configs {
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			space := mem.NewSpace(8 << 20)
			approxBase := space.AllocApprox(2<<20, compress.Float32)
			exactBase := space.Alloc(1<<20, 4096)
			cfg := DefaultConfig(64 << 10)
			cfg.CMTCachePages = 32
			if mod != nil {
				mod(&cfg)
			}
			llc := New(cfg, space, dram.New(dram.DDR4(1, 1)))

			rng := rand.New(rand.NewSource(int64(ci + 1)))
			// Mixed-quality data: some regions smooth, some noisy.
			for off := uint64(0); off < 2<<20; off += 4 {
				v := float32(100 + 0.001*float64(off%4096))
				if (off>>14)%3 == 0 {
					v = float32(rng.NormFloat64() * 1e4)
				}
				space.StoreF32(approxBase+off, v)
			}

			var now uint64
			for op := 0; op < 60000; op++ {
				var addr uint64
				if rng.Intn(4) == 0 {
					addr = exactBase + uint64(rng.Intn(1<<14))*64
				} else {
					addr = approxBase + uint64(rng.Intn(1<<15))*64
				}
				switch rng.Intn(3) {
				case 0, 1:
					now += llc.Access(now, addr)
				default:
					llc.WriteBack(now, addr)
				}
				if op%10000 == 9999 {
					if err := llc.checkInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			llc.Flush(now)
			if err := llc.checkInvariants(); err != nil {
				t.Fatalf("after flush: %v", err)
			}
			// After a flush nothing may remain dirty.
			for s := 0; s < llc.sets; s++ {
				for w := 0; w < llc.cfg.Ways; w++ {
					if e := &llc.bpa[s*llc.cfg.Ways+w]; e.valid && e.dirty && !e.isCMS {
						t.Fatalf("dirty UCL survived flush at set %d", s)
					}
				}
			}
			for ti := 0; ti < llc.sets; ti++ {
				for w := 0; w < llc.cfg.Ways; w++ {
					if tg := &llc.tags[ti*llc.cfg.Ways+w]; tg.valid && tg.dirty && tg.cmsCount > 0 {
						t.Fatalf("dirty compressed block survived flush at ti %d", ti)
					}
				}
			}
		})
	}
}

// TestLLCOccupancyProperty checks the capacity invariant behind the
// decoupled design: however a random trace interleaves compressed
// subblocks (CMS) and uncompressed lines (UCL), the bytes the tag
// metadata claims to hold can never exceed the LLC's physical capacity,
// and the claim must agree exactly with the back-pointer array's valid
// entries (no line counted twice, none leaked).
func TestLLCOccupancyProperty(t *testing.T) {
	for _, capBytes := range []int{32 << 10, 64 << 10, 256 << 10} {
		capBytes := capBytes
		t.Run(fmt.Sprintf("cap%dk", capBytes>>10), func(t *testing.T) {
			space := mem.NewSpace(8 << 20)
			approxBase := space.AllocApprox(2<<20, compress.Float32)
			exactBase := space.Alloc(1<<20, 4096)
			cfg := DefaultConfig(capBytes)
			cfg.CMTCachePages = 32
			llc := New(cfg, space, dram.New(dram.DDR4(1, 1)))

			rng := rand.New(rand.NewSource(int64(capBytes)))
			for off := uint64(0); off < 2<<20; off += 4 {
				v := float32(1 + 0.0005*float64(off%8192))
				if (off>>13)%4 == 0 {
					v = float32(rng.NormFloat64() * 1e3)
				}
				space.StoreF32(approxBase+off, v)
			}

			occupancy := func() (tagLines, bpaLines int) {
				for ti := 0; ti < llc.sets; ti++ {
					for w := 0; w < llc.cfg.Ways; w++ {
						if tag := &llc.tags[ti*llc.cfg.Ways+w]; tag.valid {
							tagLines += int(tag.uclCount) + int(tag.cmsCount)
						}
					}
				}
				for s := 0; s < llc.sets; s++ {
					for w := 0; w < llc.cfg.Ways; w++ {
						if llc.bpa[s*llc.cfg.Ways+w].valid {
							bpaLines++
						}
					}
				}
				return
			}

			var now uint64
			for op := 0; op < 40000; op++ {
				var addr uint64
				if rng.Intn(4) == 0 {
					addr = exactBase + uint64(rng.Intn(1<<14))*64
				} else {
					addr = approxBase + uint64(rng.Intn(1<<15))*64
				}
				if rng.Intn(3) == 2 {
					llc.WriteBack(now, addr)
				} else {
					now += llc.Access(now, addr)
				}
				if op%2000 == 1999 {
					tagLines, bpaLines := occupancy()
					if bytes := tagLines * compress.LineBytes; bytes > capBytes {
						t.Fatalf("op %d: occupancy %d B exceeds capacity %d B", op, bytes, capBytes)
					}
					if tagLines != bpaLines {
						t.Fatalf("op %d: tag metadata claims %d lines, BPA holds %d", op, tagLines, bpaLines)
					}
				}
			}
			llc.Flush(now)
			tagLines, bpaLines := occupancy()
			if bytes := tagLines * compress.LineBytes; bytes > capBytes {
				t.Fatalf("after flush: occupancy %d B exceeds capacity %d B", bytes, capBytes)
			}
			if tagLines != bpaLines {
				t.Fatalf("after flush: tag metadata claims %d lines, BPA holds %d", tagLines, bpaLines)
			}
		})
	}
}

// TestAddressMappingProperty checks the Fig. 6 address-breakdown
// relations the decoupled lookup relies on.
func TestAddressMappingProperty(t *testing.T) {
	space := mem.NewSpace(1 << 20)
	llc := New(DefaultConfig(256<<10), space, dram.New(dram.DDR4(1, 1)))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		addr := uint64(rng.Int63()) &^ 63 & (1<<40 - 1)
		ti := llc.tagIndex(addr)
		bt := llc.blockTag(addr)
		cl := (addr >> 6) & 0xF
		// Reconstruction: tag fields + cl offset give back the address.
		back := bt<<(10+llc.idxBits) | ti<<10 | cl<<6
		if back != addr {
			t.Fatalf("address %#x reconstructed as %#x", addr, back)
		}
		// The UCL set/suffix relations: insertUCL places a line at
		// uclSet(addr), the tag's pointers find it at uclBase(ti)+cl, and
		// evictBPAEntry recovers ti from the suffix and the set.
		us := llc.uclSet(addr)
		suf := llc.suffix(addr)
		if uint64(suf) != ti>>(llc.idxBits-4) {
			t.Fatalf("suffix %d != top bits of ti %d", suf, ti)
		}
		if int(us) != llc.uclBase(ti)+int(cl) {
			t.Fatalf("uclSet %d inconsistent with ti %d cl %d", us, ti, cl)
		}
	}
}
