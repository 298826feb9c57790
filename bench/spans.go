package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Rungs of the ladder, top to bottom, plus the rungs outside it. A span's
// rung says where the benchmark made the call: through the router's
// listener, through an avrd listener, into internal/store or into the
// avr.Codec. Differencing adjacent rungs gives a layer's self time from
// outside the program; spans inside the program are a later change.
const (
	rungClient  = "client"   // closed-loop run: the workload's own top tier
	rungRouter  = "router"   // HTTP to the router
	rungAvrd    = "avrd"     // HTTP straight to the owning shard
	rungAvrdHot = "avrd_hot" // HTTP to an avrd whose read cache is warm
	rungStore   = "store"    // direct store.* call on that shard's store
	rungCodec   = "codec"    // direct avr.Codec call on the same values
	rungCache   = "cache"    // direct Store.Get*IntoCached call
	rungSim     = "sim"      // simulator cell or compressor micro-loop
	stageSuffix = ".stage"   // X-AVR-Stage-* header of a response on that rung
)

// span is one timed call: which op it belongs to, on which rung, what
// was called, when, and how much it moved.
type span struct {
	Op     int    `json:"op"`
	Rung   string `json:"rung"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Values int    `json:"values"`
	Bytes  int    `json:"bytes"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run ends; nothing is written
// while anything is being timed. A nil recorder records nothing, which
// is how the untraced run and the overhead comparison switch spans off.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// op allocates an op id: spans of one replayed operation share it across
// rungs, and a stage span carries the id of the response it came from.
func (r *recorder) op() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextOp++
	return r.nextOp
}

func (r *recorder) add(op int, rung, name string, start, end time.Time, values, bytes int) {
	if r == nil {
		return
	}
	s := span{Op: op, Rung: rung, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		Values: values, Bytes: bytes}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addStage records one X-AVR-Stage-* header as a span anchored at its
// response's start.
func (r *recorder) addStage(op int, rung, stage string, start time.Time, d time.Duration) {
	r.add(op, rung+stageSuffix, stage, start, start.Add(d), 0, 0)
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
