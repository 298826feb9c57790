// The run engine. A run is a plain value (unit); a Runner keeps one memo
// slot per unit key; resolve runs the slots nobody has started on a
// GOMAXPROCS-wide pool. Simulated clocks are deterministic, so results
// are bit-identical however the work is scheduled.

package experiments

import (
	"runtime"
	"sync"
	"time"

	"avr/internal/sim"
	"avr/internal/workloads"
)

// unit is one simulation run as a value: the memo key that names it and
// everything needed to execute it. cores == 0 is the single-core system;
// n ≥ 1 is sim.NewMulti's n-core CMP, which runs the same core model. At
// n = 1 what differs is Barrier: it flushes and invalidates the private
// caches, where the single-core system keeps them warm.
type unit struct {
	key   string
	bench string
	cfg   sim.Config
	cores int
}

// slot is the memo of one key: the first caller simulates inside once,
// every later or concurrent caller waits there and reads e and err.
type slot struct {
	unit
	once sync.Once
	e    *Entry
	err  error
}

// results are the entries of one resolved unit list, by memo key.
type results map[string]*Entry

// of reads back a unit the renderer's registry row declared. Asking for
// one it did not declare is a bug in that row, whatever else happens to
// be memoised.
func (g results) of(u unit) *Entry {
	e, ok := g[u.key]
	if !ok {
		panic("experiments: renderer read undeclared unit " + u.key)
	}
	return e
}

// Simulate executes one single-core run of bench under cfg.
func Simulate(bench string, cfg sim.Config, sc workloads.Scale) (*Entry, error) {
	w, err := workloads.ByName(bench)
	if err != nil {
		return nil, err
	}
	sys := sim.New(cfg)
	w.Setup(sys, sc)
	sys.Prime()
	w.Run(sys)
	res := sys.Finish(bench)
	return &Entry{Result: res, Output: w.Output(sys)}, nil
}

// SimulateMulti executes bench's kernel on every core of an n-core CMP
// whose cores share cfg's LLC and DRAM, each core running its share.
func SimulateMulti(bench string, cfg sim.Config, n int, sc workloads.Scale) (sim.MultiResult, error) {
	w, err := workloads.ParallelByName(bench)
	if err != nil {
		return sim.MultiResult{}, err
	}
	m := sim.NewMulti(cfg, n)
	w.Setup(m.Shared(), sc)
	m.Prime()
	m.Run(func(c *sim.CoreCtx) { w.Run(c) })
	return m.Finish(bench), nil
}

// simulate executes the unit. A CMP run keeps its aggregate Result,
// which carries the slowest core's cycles and the summed instructions.
func (u unit) simulate(sc workloads.Scale) (*Entry, error) {
	if u.cores == 0 {
		return Simulate(u.bench, u.cfg, sc)
	}
	m, err := SimulateMulti(u.bench, u.cfg, u.cores, sc)
	if err != nil {
		return nil, err
	}
	return &Entry{Result: m.Result}, nil
}

// Simulations reports how many simulations this runner executed (memo
// hits and deduplicated callers excluded).
func (r *Runner) Simulations() int64 { return r.simulations.Load() }

// slotFor returns the memo slot of u's key, creating it for a new key.
func (r *Runner) slotFor(u unit) *slot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.slots[u.key]
	if !ok {
		s = &slot{unit: u}
		r.slots[u.key] = s
	}
	return s
}

// run returns the slot's entry, simulating it if no caller has. The one
// caller that simulates logs the one progress line of the run: done
// counts finished simulations, total the distinct runs known so far.
func (r *Runner) run(s *slot) (*Entry, error) {
	s.once.Do(func() {
		start := time.Now()
		r.simulations.Add(1)
		s.e, s.err = s.simulate(r.Scale)
		if r.Logger == nil {
			return
		}
		r.mu.Lock()
		total := len(r.slots)
		r.mu.Unlock()
		attrs := []any{"done", r.done.Add(1), "total", total, "key", s.key, "scale", r.Scale.String()}
		if s.err != nil {
			r.Logger.Error("run failed", append(attrs, "err", s.err)...)
		} else {
			r.Logger.Info("run done", append(attrs, "dur", time.Since(start).Round(time.Millisecond))...)
		}
	})
	return s.e, s.err
}

// resolve runs units on a pool of GOMAXPROCS workers — each key once,
// however often it is listed here or was asked for before — and returns
// every unit's entry, or the first error in unit order. All slots exist
// before the first run starts, so every progress line of a pass carries
// the same total.
func (r *Runner) resolve(units []unit) (results, error) {
	slots := make([]*slot, len(units))
	for i, u := range units {
		slots[i] = r.slotFor(u)
	}
	ch := make(chan *slot)
	var wg sync.WaitGroup
	for i := min(runtime.GOMAXPROCS(0), len(slots)); i > 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				r.run(s)
			}
		}()
	}
	for _, s := range slots {
		ch <- s
	}
	close(ch)
	wg.Wait()

	got := make(results, len(slots))
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		got[s.key] = s.e
	}
	return got, nil
}
