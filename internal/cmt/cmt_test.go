package cmt

import (
	"testing"
	"testing/quick"

	"avr/internal/compress"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []Entry{
		{},
		{Compressed: true, SizeLines: 1, Method: compress.Method1D},
		{Compressed: true, SizeLines: 8, Method: compress.Method2D, Bias: -100, Lazy: 15, Failed: 3, Skip: 15},
		{Compressed: false, Bias: 127, Failed: 2, Skip: 7},
		{Compressed: true, SizeLines: 4, Method: compress.Method2D, Bias: -128, Lazy: 7},
	}
	for i, e := range cases {
		got := Unpack(e.Pack())
		want := e
		if !want.Compressed {
			want.SizeLines = 0 // size is meaningless uncompressed
			want.Lazy = want.Lazy & 0xF
		}
		if got != want {
			t.Errorf("case %d: round trip %+v -> %+v", i, want, got)
		}
	}
}

func TestPackFitsIn23Bits(t *testing.T) {
	f := func(size, method, lazy, failed, skip uint8, bias int8, comp bool) bool {
		e := Entry{
			Compressed: comp,
			SizeLines:  size%8 + 1,
			Method:     compress.Method(method % 2),
			Bias:       bias,
			Lazy:       lazy % 16,
			Failed:     failed % 4,
			Skip:       skip % 16,
		}
		return e.Pack() < 1<<EntryBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(size, lazy, failed, skip uint8, bias int8, m bool) bool {
		e := Entry{
			Compressed: true,
			SizeLines:  size%8 + 1,
			Bias:       bias,
			Lazy:       lazy % 16,
			Failed:     failed % 4,
			Skip:       skip % 16,
		}
		if m {
			e.Method = compress.Method2D
		}
		return Unpack(e.Pack()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFreeLazySlots(t *testing.T) {
	e := Entry{Compressed: true, SizeLines: 3}
	if got := e.FreeLazySlots(); got != 13 {
		t.Errorf("FreeLazySlots = %d, want 13", got)
	}
	e.Lazy = 13
	if got := e.FreeLazySlots(); got != 0 {
		t.Errorf("FreeLazySlots full = %d, want 0", got)
	}
	u := Entry{}
	if u.FreeLazySlots() != 0 {
		t.Error("uncompressed block has no lazy slots")
	}
}

func TestReadLines(t *testing.T) {
	e := Entry{Compressed: true, SizeLines: 2, Lazy: 5}
	if got := e.ReadLines(); got != 7 {
		t.Errorf("ReadLines = %d, want 7", got)
	}
	u := Entry{}
	if u.ReadLines() != compress.BlockLines {
		t.Error("uncompressed block reads all 16 lines")
	}
}

func TestFailureSkipSchedule(t *testing.T) {
	var e Entry
	e.RecordFailure() // failed=1 -> skip 1
	if e.Failed != 1 || e.Skip != 1 {
		t.Fatalf("after 1 failure: %+v", e)
	}
	if e.ShouldAttempt() {
		t.Error("first attempt after failure should be skipped")
	}
	if !e.ShouldAttempt() {
		t.Error("skip budget exhausted, should attempt")
	}
	e.RecordFailure() // failed=2 -> skip 3
	if e.Failed != 2 || e.Skip != 3 {
		t.Fatalf("after 2 failures: %+v", e)
	}
	e.RecordFailure()
	e.RecordFailure() // saturate at 3 -> skip 7
	if e.Failed != 3 || e.Skip != 7 {
		t.Fatalf("after saturation: %+v", e)
	}
}

func TestRecordSuccessResetsHistory(t *testing.T) {
	var e Entry
	e.RecordFailure()
	e.RecordFailure()
	e.RecordSuccess(2, compress.Method2D, 5)
	if !e.Compressed || e.SizeLines != 2 || e.Method != compress.Method2D || e.Bias != 5 {
		t.Errorf("entry after success: %+v", e)
	}
	if e.Failed != 0 || e.Skip != 0 || e.Lazy != 0 {
		t.Errorf("history not reset: %+v", e)
	}
	if !e.ShouldAttempt() {
		t.Error("successful block must always attempt")
	}
}

func TestTableLookupCreatesDefault(t *testing.T) {
	tb := NewTable(1024, 4)
	e := tb.Lookup(0x12345)
	if e.Compressed {
		t.Error("default entry must be uncompressed")
	}
	e2 := tb.Lookup(0x12345)
	if e != e2 {
		t.Error("lookups of the same block must return the same entry")
	}
}

func TestTableBlockNumber(t *testing.T) {
	tb := NewTable(1024, 4)
	if tb.BlockNumber(1023) != 0 || tb.BlockNumber(1024) != 1 {
		t.Error("block number mapping wrong")
	}
}

func TestTableCacheTraffic(t *testing.T) {
	tb := NewTable(1024, 2) // tiny cache: 2 pages
	// Touch three distinct pages (page = 4 blocks = 4 KiB).
	tb.Lookup(0 * 4096)
	tb.Lookup(1 * 4096)
	tb.Lookup(2 * 4096) // evicts page 0 (clean)
	s := tb.Stats()
	if s.Misses != 3 {
		t.Errorf("misses = %d, want 3", s.Misses)
	}
	if s.TrafficBytes != 3*PageEntryBytes {
		t.Errorf("traffic = %d, want %d", s.TrafficBytes, 3*PageEntryBytes)
	}
	// Page 1 is still cached: hit.
	tb.Lookup(1 * 4096)
	if got := tb.Stats().Misses; got != 3 {
		t.Errorf("misses after hit = %d, want 3", got)
	}
}

func TestTableDirtyWriteback(t *testing.T) {
	tb := NewTable(1024, 1)
	tb.Lookup(0)
	tb.MarkDirty(0)
	tb.Lookup(4096) // evicts dirty page 0
	s := tb.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
	if s.TrafficBytes != 3*PageEntryBytes {
		t.Errorf("traffic = %d, want %d (2 fills + 1 wb)", s.TrafficBytes, 3*PageEntryBytes)
	}
}

func TestTableLRUOrder(t *testing.T) {
	tb := NewTable(1024, 2)
	tb.Lookup(0 * 4096)
	tb.Lookup(1 * 4096)
	tb.Lookup(0 * 4096) // page 0 now MRU
	tb.Lookup(2 * 4096) // must evict page 1, not 0
	tb.Lookup(0 * 4096) // should still hit
	s := tb.Stats()
	if s.Misses != 3 {
		t.Errorf("misses = %d, want 3 (page 0 stayed cached)", s.Misses)
	}
}

func TestCompressedBlocks(t *testing.T) {
	tb := NewTable(1024, 16)
	e := tb.Lookup(0)
	e.Compressed = true
	e.SizeLines = 2
	e = tb.Lookup(1024)
	e.Compressed = true
	e.SizeLines = 5
	tb.Lookup(2048) // uncompressed
	blocks, lines := tb.CompressedBlocks()
	if blocks != 2 || lines != 7 {
		t.Errorf("CompressedBlocks = (%d, %d), want (2, 7)", blocks, lines)
	}
}

func TestNewTablePanicsOnBadBlockSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two block size")
		}
	}()
	NewTable(1000, 4)
}

// TestLookupPointerStableAcrossGrowth guards the slab refactor's core
// contract: *Entry pointers returned by Lookup stay valid (and aliased to
// the same entry) while later lookups grow the page directory.
func TestLookupPointerStableAcrossGrowth(t *testing.T) {
	tb := NewTable(1024, 4)
	e := tb.Lookup(0)
	e.Compressed = true
	e.SizeLines = 3
	// Touch thousands of far pages to force repeated directory growth and
	// CMT-cache evictions.
	for a := uint64(1); a < 4096; a++ {
		tb.Lookup(a * 4096 * 1024)
	}
	e2 := tb.Lookup(0)
	if e != e2 {
		t.Fatal("Lookup returned a different pointer after directory growth")
	}
	if !e2.Compressed || e2.SizeLines != 3 {
		t.Fatalf("entry state lost across growth: %+v", *e2)
	}
	blocks, lines := tb.CompressedBlocks()
	if blocks != 1 || lines != 3 {
		t.Fatalf("CompressedBlocks = (%d, %d), want (1, 3)", blocks, lines)
	}
}

// TestLookupStatsMatchMapReference cross-checks the slab-backed cache
// model against the pre-refactor semantics on a pseudo-random trace:
// hit/miss/writeback accounting must be untouched by the representation
// change.
func TestLookupStatsMatchMapReference(t *testing.T) {
	tb := NewTable(1024, 8)
	seed := uint64(0x9E3779B97F4A7C15)
	x := seed
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := (x % 64) * 4096 // 64 pages vs an 8-page cache
		if x&3 == 0 {
			tb.MarkDirty(addr)
		} else {
			tb.Lookup(addr)
		}
	}
	st := tb.Stats()
	if st.Lookups != 20000 {
		t.Fatalf("lookups = %d, want 20000", st.Lookups)
	}
	if st.Misses == 0 || st.Writebacks == 0 {
		t.Fatalf("trace produced no misses (%d) or writebacks (%d)", st.Misses, st.Writebacks)
	}
	if want := st.Misses + st.Writebacks; st.TrafficBytes != want*PageEntryBytes {
		t.Fatalf("traffic = %d, want %d", st.TrafficBytes, want*PageEntryBytes)
	}
}

// Pack encodes the entry into its 23-bit hardware representation.
func (e *Entry) Pack() uint32 {
	var m uint32
	if e.Compressed {
		m = 1 + uint32(e.Method) // 0 = uncompressed
	}
	var size uint32
	if e.Compressed {
		size = uint32(e.SizeLines-1) & 7
	}
	return size |
		m<<3 |
		uint32(uint8(e.Bias))<<5 |
		uint32(e.Lazy&0xF)<<13 |
		uint32(e.Failed&0x3)<<17 |
		uint32(e.Skip&0xF)<<19
}

// Unpack decodes a 23-bit representation into the entry.
func Unpack(v uint32) Entry {
	m := (v >> 3) & 3
	e := Entry{
		Bias:   int8(v >> 5),
		Lazy:   uint8(v>>13) & 0xF,
		Failed: uint8(v>>17) & 0x3,
		Skip:   uint8(v>>19) & 0xF,
	}
	if m != 0 {
		e.Compressed = true
		e.Method = compress.Method(m - 1)
		e.SizeLines = uint8(v&7) + 1
	}
	return e
}

// BlockNumber maps a physical address to its memory-block number.
func (t *Table) BlockNumber(addr uint64) uint64 { return addr >> t.blockShift }
