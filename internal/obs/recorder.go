package obs

// Epoch is one recorded time-series sample: the counter deltas over the
// epoch plus the cumulative totals at its end.
type Epoch struct {
	// Index is the 1-based epoch number.
	Index uint64 `json:"epoch"`
	// Final marks the partial epoch captured at Finish: it covers the
	// tail of the run (including the end-of-run cache flush), so the
	// per-counter sum of all epoch deltas equals the run's totals.
	Final bool `json:"final,omitempty"`
	// Delta holds the counter changes over this epoch.
	Delta Counters `json:"delta"`
	// Total holds the cumulative counters at the end of this epoch.
	Total Counters `json:"total"`
}

// Recorder captures an epoch time-series of counter snapshots into a
// preallocated ring. The simulator calls Record every Every() demand
// accesses with its cumulative counters; the recorder differences them
// against the previous snapshot and stores the delta. When more epochs
// are recorded than the ring holds, the oldest are overwritten (Dropped
// reports how many); attach a Sink to stream every epoch instead.
//
// A nil *Recorder is valid and records nothing. Record and Finish do not
// allocate.
type Recorder struct {
	every uint64
	ring  []Epoch
	count uint64 // epochs recorded so far
	prev  Counters
	sink  func(Epoch)
}

// NewRecorder creates a recorder sampling every `every` demand accesses,
// retaining up to capacity epochs (minimum 1). every == 0 yields a
// disabled recorder: the simulator will never sample it.
func NewRecorder(every uint64, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{every: every, ring: make([]Epoch, capacity)}
}

// Every returns the sampling interval in demand accesses (0 = disabled).
func (r *Recorder) Every() uint64 {
	if r == nil {
		return 0
	}
	return r.every
}

// SetSink attaches a function invoked with every recorded epoch, in
// order, as it completes — the streaming hook behind avrsim trace.
func (r *Recorder) SetSink(fn func(Epoch)) {
	if r == nil {
		return
	}
	r.sink = fn
}

// Record captures one epoch ending at the cumulative snapshot now.
func (r *Recorder) Record(now Counters) {
	if r == nil {
		return
	}
	r.record(now, false)
}

// Finish captures the final, possibly partial, epoch ending at now.
// After Finish, the per-counter sum of all epoch deltas equals now.
func (r *Recorder) Finish(now Counters) {
	if r == nil {
		return
	}
	r.record(now, true)
}

func (r *Recorder) record(now Counters, final bool) {
	e := Epoch{Index: r.count + 1, Final: final, Delta: now.Sub(r.prev), Total: now}
	r.prev = now
	r.ring[int(r.count%uint64(len(r.ring)))] = e
	r.count++
	if r.sink != nil {
		r.sink(e)
	}
}

// Dropped returns how many epochs were overwritten in the ring. Dropped
// and Epochs have only test callers, the simulator's epoch tests (package
// sim) among them, so they cannot move into a test file here.
func (r *Recorder) Dropped() uint64 {
	if r == nil || r.count <= uint64(len(r.ring)) {
		return 0
	}
	return r.count - uint64(len(r.ring))
}

// Epochs returns the retained epochs, oldest first. It allocates and is
// meant for end-of-run export, not the hot path.
func (r *Recorder) Epochs() []Epoch {
	if r == nil || r.count == 0 {
		return nil
	}
	n := r.count
	cap64 := uint64(len(r.ring))
	if n > cap64 {
		n = cap64
	}
	out := make([]Epoch, 0, n)
	start := r.count - n
	for i := uint64(0); i < n; i++ {
		out = append(out, r.ring[int((start+i)%cap64)])
	}
	return out
}
