package store

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestStatsAreTheStoresOwn: a Stats document describes its own store.
// Two stores share a process, as a fleet's shards do in bench/ and in
// the cluster tests; writing to one leaves the other's snapshot as it
// was.
func TestStatsAreTheStoresOwn(t *testing.T) {
	open := func() *Store {
		s, err := Open(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	a, b := open(), open()
	if _, err := b.Put32("b", make([]float32, 1024)); err != nil {
		t.Fatal(err)
	}
	before := b.Stats()
	for i := 0; i < 8; i++ {
		if _, err := a.Put32(fmt.Sprint("a", i), make([]float32, 4096)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.QueryAggregateTraced("a0", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Delete("a0"); err != nil {
		t.Fatal(err)
	}
	if after := b.Stats(); !reflect.DeepEqual(before, after) {
		t.Errorf("store b's stats moved with store a's traffic:\n%+v\nthen\n%+v", before, after)
	}
}

// TestStatsListSegmentsInIDOrder: the segment list is in ID order, so
// two snapshots of an unchanged store are the same document.
func TestStatsListSegmentsInIDOrder(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), SegmentTargetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 16; i++ {
		if _, err := s.Put32(fmt.Sprint("k", i), make([]float32, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Stats()
	if len(first.SegmentList) < 10 {
		t.Fatalf("%d segments: the order check needs more", len(first.SegmentList))
	}
	for i := 0; i < 10; i++ {
		st := s.Stats()
		if !reflect.DeepEqual(st, first) {
			t.Fatalf("call %d listed\n%+v\nafter\n%+v", i+2, st.SegmentList, first.SegmentList)
		}
		if !slices.IsSortedFunc(st.SegmentList, func(x, y SegmentStats) int { return int(x.ID) - int(y.ID) }) {
			t.Fatalf("segments out of ID order: %+v", st.SegmentList)
		}
	}
}
