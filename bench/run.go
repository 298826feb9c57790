package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"avr"
	"avr/internal/obs"
)

// options are one run's parameters. Only workload, seed, seconds and
// trace come from the command line of a benchmark run; the rest are the
// run shape, shortened by the tests.
type options struct {
	workload string
	seed     uint64
	seconds  float64       // timed phase
	warmup   time.Duration // discarded, before the timed phase
	keys     int           // dataset size
	setups   int           // how many times set-up runs; setup_s is the median
	workdir  string        // where store directories and span files go
	benches  []string      // simulator benchmarks (all seven outside tests)
	rec      *recorder     // non-nil in the traced run
}

func defaultOptions() options {
	return options{
		seconds: 10,
		warmup:  1500 * time.Millisecond,
		keys:    fullKeys,
		setups:  5,
		benches: avr.Benchmarks(),
	}
}

// counters is a snapshot of the process-global counters the tiers
// publish (the avr.* expvars that /v1/stats and /metrics mirror) and of
// the process itself. They never reset, so a run reads deltas.
type counters struct {
	storePuts, storeGets                int64
	cacheHits, cacheMisses, cacheEvicts int64
	prefetchIssued, prefetchUseful      int64
	queryTouched, queryTotal            int64
	compactions, compactedBytes         int64
	serverRequests, serverShed          int64
	routerRequests, routerShed          int64
	routerFanouts, routerRetries        int64
	routerFailovers                     int64
	mallocs                             uint64
	gcPauseNs                           uint64
	cpuUs                               int64
	nodeReqs                            []int64
}

func snapshotCounters(e *env) counters {
	c := counters{
		storePuts:       obs.StorePuts.Value(),
		storeGets:       obs.StoreGets.Value(),
		cacheHits:       obs.CacheHits.Value(),
		cacheMisses:     obs.CacheMisses.Value(),
		cacheEvicts:     obs.CacheEvictions.Value(),
		prefetchIssued:  obs.PrefetchIssued.Value(),
		prefetchUseful:  obs.PrefetchUseful.Value(),
		queryTouched:    obs.StoreQueryBytesTouched.Value(),
		queryTotal:      obs.StoreQueryBytesTotal.Value(),
		compactions:     obs.StoreCompactions.Value(),
		compactedBytes:  obs.StoreCompactedBytes.Value(),
		serverRequests:  obs.ServerRequests.Value(),
		serverShed:      obs.ServerShed.Value(),
		routerRequests:  obs.RouterRequests.Value(),
		routerShed:      obs.RouterShed.Value(),
		routerFanouts:   obs.RouterFanouts.Value(),
		routerRetries:   obs.RouterRetries.Value(),
		routerFailovers: obs.RouterFailovers.Value(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcPauseNs = ms.Mallocs, ms.PauseTotalNs
	c.cpuUs = cpuMicros()
	if e != nil && e.fleet != nil {
		for _, n := range e.fleet.router.Stats().Nodes {
			c.nodeReqs = append(c.nodeReqs, n.Requests)
		}
	}
	return c
}

// sub returns a-b field by field.
func (a counters) sub(b counters) counters {
	d := counters{
		storePuts: a.storePuts - b.storePuts, storeGets: a.storeGets - b.storeGets,
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses,
		cacheEvicts:    a.cacheEvicts - b.cacheEvicts,
		prefetchIssued: a.prefetchIssued - b.prefetchIssued, prefetchUseful: a.prefetchUseful - b.prefetchUseful,
		queryTouched: a.queryTouched - b.queryTouched, queryTotal: a.queryTotal - b.queryTotal,
		compactions: a.compactions - b.compactions, compactedBytes: a.compactedBytes - b.compactedBytes,
		serverRequests: a.serverRequests - b.serverRequests, serverShed: a.serverShed - b.serverShed,
		routerRequests: a.routerRequests - b.routerRequests, routerShed: a.routerShed - b.routerShed,
		routerFanouts: a.routerFanouts - b.routerFanouts, routerRetries: a.routerRetries - b.routerRetries,
		routerFailovers: a.routerFailovers - b.routerFailovers,
		mallocs:         a.mallocs - b.mallocs, gcPauseNs: a.gcPauseNs - b.gcPauseNs,
		cpuUs: a.cpuUs - b.cpuUs,
	}
	for i := range a.nodeReqs {
		if i < len(b.nodeReqs) {
			d.nodeReqs = append(d.nodeReqs, a.nodeReqs[i]-b.nodeReqs[i])
		}
	}
	return d
}

// rusage reads the process's resource usage; zero if the call fails.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a failed read leaves zeros, and the two proc.* metrics read 0
	return ru
}

// cpuMicros is the process's user+system CPU time.
func cpuMicros() int64 {
	ru := rusage()
	return ru.Utime.Sec*1e6 + ru.Utime.Usec + ru.Stime.Sec*1e6 + ru.Stime.Usec
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// storeTotals sums the store snapshots of every node after a run.
type storeTotals struct {
	liveBytes, rawBytes   int64
	segments              int
	blocks, flaggedBlocks int
	cacheResident         int64
	cacheLines            int
}

func totals(e *env) storeTotals {
	var t storeTotals
	for _, n := range e.nodes {
		st := n.st.Stats()
		t.liveBytes += st.LiveBytes
		t.rawBytes += st.RawBytes
		t.segments += st.Segments
		t.blocks += st.Blocks
		t.flaggedBlocks += st.FlaggedBlocks
		cs := n.st.CacheSnapshot()
		t.cacheResident += cs.ResidentBytes
		t.cacheLines += cs.Lines
	}
	return t
}

// runResult is everything one run measured.
type runResult struct {
	opt      options
	w        *workload // nil on sim_matrix
	setup    float64   // setup_s: the set-ups steadied, at reference speed
	setupS   []float64 // each set-up, at reference speed
	setupRaw []float64 // each set-up, as measured
	ref      []float64 // reference-kernel readings of the timed phase, both clients, ns
	timedS   float64   // length of the timed phase
	acct     *account  // timed phase, both clients
	readback *account  // untimed read-back of every key
	delta    counters  // over the timed phase
	store    storeTotals
	ds       *dataset
	sim      *simResult
}

// setSetup reduces the run's set-ups to setup_s: the same work every
// time, so the median is taken step by step.
func (r *runResult) setSetup(setups []*steps) {
	for _, st := range setups {
		r.setupRaw = append(r.setupRaw, st.total())
		r.setupS = append(r.setupS, atRefSpeed(st.total(), refMedian(st.ref.samples)))
	}
	r.setup = steadied(setups, median)
}

func (r *runResult) attempted() int {
	if r.sim != nil {
		return r.sim.attempted
	}
	return r.acct.attempted + r.readback.attempted
}

func (r *runResult) failed() int {
	if r.sim != nil {
		return r.sim.failed
	}
	return r.acct.failed + r.readback.failed
}

// run executes one workload once.
func run(opt options) (*runResult, error) {
	if opt.workload == "sim_matrix" {
		return runSim(opt)
	}
	w := findWorkload(opt.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames())
	}
	return runServing(w, opt)
}

func runSim(opt options) (*runResult, error) {
	res := &runResult{opt: opt}
	// Set-up is the discarded warm-up cells.
	warm, err := runSimWarmup(opt.benches[0], opt.setups)
	if err != nil {
		return nil, err
	}
	res.setSetup(cellSteps(warm))
	t0 := time.Now()
	res.sim, err = runSimMatrix(opt.benches, opt.seconds, opt.rec)
	if err != nil {
		return nil, err
	}
	res.timedS = time.Since(t0).Seconds()
	for _, c := range res.sim.cells {
		for _, r := range c.runs {
			res.ref = append(res.ref, r.ref.samples...)
		}
	}
	return res, nil
}

// setUp stands the workload's tiers up over ds and seeds them. It is the
// timed unit behind setup_s; generating ds is the benchmark's own work
// and is not.
func setUp(w *workload, opt options, ds *dataset) (*env, *steps, error) {
	dir, err := runDir(opt.workdir, w.name)
	if err != nil {
		return nil, nil, err
	}
	st := startSteps()
	e, err := w.start(dir, ds, st)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	st.cut()
	stop := e.stop
	e.stop = func() error {
		err := stop()
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
		return err
	}
	return e, st, nil
}

// runServing runs one serving workload: the dataset generated once,
// set-up several times with the last one kept, a discarded warm-up, the
// timed phase with 2 closed-loop clients, and an untimed read-back of
// every key.
func runServing(w *workload, opt options) (res *runResult, err error) {
	res = &runResult{opt: opt, w: w}
	if res.ds, err = genDataset(opt.seed, opt.keys); err != nil {
		return nil, err
	}
	if w.queries {
		res.ds.buildTruth()
	}
	var e *env
	var setups []*steps
	for i := 0; i < opt.setups; i++ {
		if e != nil {
			if err := e.stop(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		var st *steps
		if e, st, err = setUp(w, opt, res.ds); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
	}
	res.setSetup(setups)
	defer func() {
		if serr := e.stop(); serr != nil && err == nil {
			err = fmt.Errorf("tearing down: %w", serr)
		}
	}()

	callers := make([]*caller, clients)
	states := make([]*clientState, clients)
	for i := range callers {
		callers[i] = newCaller(opt.rec)
		defer callers[i].close()
		states[i] = newClientState(opt.seed, i, len(e.ds.keys))
	}
	eachClient := func(f func(i int)) {
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				f(i)
			}(i)
		}
		wg.Wait()
	}
	loopUntil := func(deadline time.Time) {
		eachClient(func(i int) {
			c := callers[i]
			for time.Now().Before(deadline) {
				w.step(c, e, states[i])
				c.ref.tick(time.Now())
			}
		})
	}

	// Warm-up: connections open, caches fill, lazy set-up finishes. Its
	// ops are verified like any other but booked nowhere, and no spans
	// are kept.
	warm := newAccount()
	for _, c := range callers {
		c.rec = nil
	}
	loopUntil(time.Now().Add(opt.warmup))
	for _, c := range callers {
		warm.merge(c.acct)
		c.rec = opt.rec
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up ops failed\n%s", warm.failed, warm.attempted, warm.failureTable())
	}

	before := snapshotCounters(e)
	start := time.Now()
	for _, c := range callers {
		c.acct = newAccount()
		c.acct.startTimed(start)
		c.ref.samples = nil
	}
	loopUntil(start.Add(time.Duration(opt.seconds * float64(time.Second))))
	res.timedS = time.Since(start).Seconds()
	res.delta = snapshotCounters(e).sub(before)
	res.acct = newAccount()
	for _, c := range callers {
		res.acct.merge(c.acct)
		res.ref = append(res.ref, c.ref.samples...)
	}

	// Read-back: every key once through the top tier, every value
	// bound-checked.
	for _, c := range callers {
		c.acct = newAccount()
		c.rec = nil
	}
	eachClient(func(i int) {
		lo, n := half(e.ds, i)
		for j := lo; j < lo+n; j++ {
			callers[i].get(e.top, &e.ds.keys[j], true)
		}
	})
	res.readback = newAccount()
	for _, c := range callers {
		res.readback.merge(c.acct)
	}
	res.store = totals(e)
	return res, nil
}
