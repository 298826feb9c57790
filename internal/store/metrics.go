package store

import (
	"cmp"
	"slices"
)

// SegmentStats describes one segment file.
type SegmentStats struct {
	ID        uint32  `json:"id"`
	Bytes     int64   `json:"bytes"`
	LiveBytes int64   `json:"live_bytes"`
	DeadBytes int64   `json:"dead_bytes"`
	DeadFrac  float64 `json:"dead_fraction"`
	Active    bool    `json:"active"`
}

// Stats is a point-in-time snapshot of this store, served by avrd at
// /v1/store/stats and printed by cmd/avrstore inspect. Blocks, RawBytes
// and FlaggedBlocks are sums over the live blocks; a flagged block is
// one stored lossless at the store's current t1. The process-wide
// counters are on /metrics only.
type Stats struct {
	Dir           string  `json:"dir"`
	T1            float64 `json:"t1"`
	Keys          int     `json:"keys"`
	Blocks        int     `json:"blocks"`
	FlaggedBlocks int     `json:"flagged_blocks"`
	Tombstones    int     `json:"tombstones"`
	Segments      int     `json:"segments"`
	// RawBytes is the uncompressed size of every live value; DiskBytes
	// is the on-disk footprint (dead frames included); LiveBytes is the
	// on-disk footprint of live frames only.
	RawBytes  int64 `json:"raw_bytes"`
	DiskBytes int64 `json:"disk_bytes"`
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	// AchievedRatio is raw bytes over live on-disk bytes: the effective
	// compression of the data actually reachable.
	AchievedRatio float64 `json:"achieved_ratio"`
	// CompactionDebt is the dead-byte fraction of the whole store — the
	// work the background worker has not yet reclaimed.
	CompactionDebt float64 `json:"compaction_debt"`

	// SegmentList is every segment, in ID order.
	SegmentList []SegmentStats `json:"segment_list,omitempty"`
}

// Stats snapshots the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Dir:        s.cfg.Dir,
		T1:         s.cfg.T1,
		Keys:       len(s.index),
		Tombstones: len(s.tombs),
		Segments:   len(s.segs),
	}
	for _, e := range s.index {
		for i := range e.refs {
			if ref := &e.refs[i]; ref.seg != 0 {
				st.Blocks++
				st.RawBytes += int64(ref.valCount) * int64(e.width/8)
				if ref.flagged(s.cfg.T1) {
					st.FlaggedBlocks++
				}
			}
		}
	}
	for id, m := range s.segs {
		st.DiskBytes += m.size
		st.LiveBytes += m.liveBytes
		st.DeadBytes += m.deadBytes
		st.SegmentList = append(st.SegmentList, SegmentStats{
			ID: id, Bytes: m.size,
			LiveBytes: m.liveBytes, DeadBytes: m.deadBytes,
			DeadFrac: m.deadFraction(), Active: m == s.active,
		})
	}
	slices.SortFunc(st.SegmentList, func(a, b SegmentStats) int { return cmp.Compare(a.ID, b.ID) })
	if st.LiveBytes > 0 {
		st.AchievedRatio = float64(st.RawBytes) / float64(st.LiveBytes)
	}
	if st.DiskBytes > 0 {
		st.CompactionDebt = float64(st.DeadBytes) / float64(st.DiskBytes)
	}
	return st
}
