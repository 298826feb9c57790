package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"avr"
	"avr/internal/store"
)

// The ladder replays one fixed op list, single client, through every
// rung: the router's listener, the owning shard's listener, a direct
// call on that shard's store, a direct call on an avr.Codec. The same
// key goes down all rungs back to back under one op id, so drift in the
// box moves all rungs alike and the differences between adjacent rungs
// are each layer's self time.
//
// The shards run with the read cache and the compactor off, so every get
// takes the disk path and nothing runs beside the op being timed; a
// fourth avrd with the cache on serves the read-cache rungs.

const (
	ladderKeys   = 128
	ladderRounds = 3
)

// ladder is the stood-up rig and what its replay found besides spans.
type ladder struct {
	rec   *recorder
	ds    *dataset
	fleet *fleet
	hot   *node
	codec *avr.Codec
	c     *caller
	enc   [][]byte // the codec rung's encoding of each key

	errSum float64 // codec round trip: Σ |x'-x| / (t1q |x|)
	errN   int64
	// overhead comparison: router get p50 with spans recorded and with the
	// recorder off
	onMs, offMs []float64
}

// runLadder stands the rig up, replays the op list and tears it down.
func runLadder(opt options) (l *ladder, err error) {
	n := ladderKeys
	if opt.keys < n {
		n = opt.keys
	}
	ds, err := genDataset(opt.seed, n)
	if err != nil {
		return nil, err
	}
	ds.buildTruth()
	dir, err := runDir(opt.workdir, "ladder")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l = &ladder{rec: opt.rec, ds: ds, c: newCaller(opt.rec), enc: make([][]byte, n)}
	l.codec = avr.NewCodec(l.c.t1q)
	defer l.c.close()

	cold := func(dir string) store.Config {
		cfg := avrdStore(dir)
		cfg.CacheBytes, cfg.Prefetch, cfg.CompactEvery = 0, false, 0
		return cfg
	}
	if l.fleet, err = startFleet(filepath.Join(dir, "cold"), 3, cold); err != nil {
		return nil, err
	}
	defer func() {
		if serr := l.fleet.stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	l.puts()
	l.gets()
	l.queries()
	l.batches()
	if err := l.cacheRungs(filepath.Join(dir, "hot")); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ladder) router() target {
	return target{base: l.fleet.base, tier: "router", rung: rungRouter}
}

func shard(n *node) target { return target{base: n.base, tier: "avrd", rung: rungAvrd} }

// fail books a failed direct call.
func (l *ladder) fail(rung, what string, err error) {
	l.c.acct.attempted++
	l.c.acct.fail(rung, fmt.Sprintf("%s: %v", what, err))
}

// puts replays every key's put down the four rungs.
func (l *ladder) puts() {
	var encBuf []byte
	for round := 0; round < ladderRounds; round++ {
		for i := range l.ds.keys {
			k := &l.ds.keys[i]
			op := l.rec.op()
			l.c.fixedOp = op
			owner := l.fleet.owners(k.name)[0]
			l.c.put(l.router(), k)
			l.c.put(shard(owner), k)
			l.storePut(op, owner.st, k, "put"+k.class())

			var err error
			t0 := time.Now()
			if k.width == 32 {
				encBuf, err = l.codec.EncodeTo(encBuf[:0], k.floats32())
			} else {
				encBuf, err = l.codec.Encode64To(encBuf[:0], k.floats64())
			}
			t1 := time.Now()
			if err != nil {
				l.fail(rungCodec, "encode "+k.name, err)
				continue
			}
			l.c.acct.attempted++
			l.rec.add(op, rungCodec, "put"+k.class(), t0, t1, k.nvals, len(encBuf))
			l.enc[i] = append(l.enc[i][:0], encBuf...)
		}
	}
	l.c.fixedOp = 0
}

// storePut is the store rung of a put: the call avrd's handler makes,
// after the same bytes-to-floats conversion, which the span includes
// because the handler's caller pays for it too.
func (l *ladder) storePut(op int, st *store.Store, k *keyInfo, name string) {
	var res store.PutResult
	var err error
	t0 := time.Now()
	if k.width == 32 {
		res, err = st.Put32Traced(k.name, k.floats32(), nil)
	} else {
		res, err = st.Put64Traced(k.name, k.floats64(), nil)
	}
	t1 := time.Now()
	if err != nil {
		l.fail(rungStore, "put "+k.name, err)
		return
	}
	l.c.acct.attempted++
	l.rec.add(op, rungStore, name, t0, t1, k.nvals, int(res.StoredBytes))
}

// gets replays every key's get down the four rungs.
func (l *ladder) gets() {
	var d32 []float32
	var d64 []float64
	for round := 0; round < ladderRounds; round++ {
		for i := range l.ds.keys {
			k := &l.ds.keys[i]
			op := l.rec.op()
			l.c.fixedOp = op
			owner := l.fleet.owners(k.name)[0]

			// The overhead pair: the same get with the recorder off and on,
			// in alternating order so neither side always reads a warmer box.
			for _, on := range [2]bool{i%2 == 1, i%2 == 0} {
				rec := l.c.rec
				if !on {
					l.c.rec = nil
				}
				before := len(l.c.acct.lat["get"+k.class()])
				l.c.get(l.router(), k, true)
				l.c.rec = rec
				if lat := l.c.acct.lat["get"+k.class()]; len(lat) > before {
					if on {
						l.onMs = append(l.onMs, lat[len(lat)-1])
					} else {
						l.offMs = append(l.offMs, lat[len(lat)-1])
					}
				}
			}

			l.c.get(shard(owner), k, true)
			l.storeGet(op, owner.st, k)

			var err error
			t0 := time.Now()
			if k.width == 32 {
				d32, err = l.codec.DecodeTo(d32[:0], l.enc[i])
			} else {
				d64, err = l.codec.Decode64To(d64[:0], l.enc[i])
			}
			t1 := time.Now()
			if err != nil {
				l.fail(rungCodec, "decode "+k.name, err)
				continue
			}
			l.c.acct.attempted++
			l.rec.add(op, rungCodec, "get"+k.class(), t0, t1, k.nvals, len(l.enc[i]))
			if round == 0 {
				l.roundTripError(k, d32, d64)
			}
		}
	}
	l.c.fixedOp = 0
}

// storeGet is the store rung of a get: GetCachedTraced, the call avrd's
// get handler makes.
func (l *ladder) storeGet(op int, st *store.Store, k *keyInfo) {
	t0 := time.Now()
	v32, v64, _, _, err := st.GetCachedTraced(k.name, nil)
	t1 := time.Now()
	if err != nil || len(v32)+len(v64) != k.nvals {
		l.fail(rungStore, "get "+k.name, fmt.Errorf("%d values, err %v", len(v32)+len(v64), err))
		return
	}
	l.c.acct.attempted++
	l.rec.add(op, rungStore, "get"+k.class(), t0, t1, k.nvals, 0)
}

// roundTripError adds one key's codec round trip to the realised-error
// mean, and fails the op if any value is outside the bound.
func (l *ladder) roundTripError(k *keyInfo, d32 []float32, d64 []float64) {
	for j := 0; j < k.nvals; j++ {
		var got float64
		if k.width == 32 {
			got = float64(d32[j])
		} else {
			got = d64[j]
		}
		want := k.value(j)
		d, lim := math.Abs(got-want), l.c.t1q*math.Abs(want)
		if d > lim*(1+1e-9) {
			l.c.acct.fail(rungCodec, "bound")
			return
		}
		if lim > 0 {
			l.errSum += d / lim
			l.errN++
		}
	}
}

// queries replays the three query kinds on the avrd and store rungs. The
// router scatters cluster-wide aggregates only, so it has no rung here.
func (l *ladder) queries() {
	for i := range l.ds.keys {
		k := &l.ds.keys[i]
		owner := l.fleet.owners(k.name)[0]
		for kind := range queryNames {
			op := l.rec.op()
			l.c.fixedOp = op
			l.c.query(shard(owner), k, kind)

			var err error
			t0 := time.Now()
			switch kind {
			case queryAggregate:
				_, err = owner.st.QueryAggregateTraced(k.name, nil)
			case queryFilter:
				span := k.truth.max - k.truth.min
				_, err = owner.st.QueryFilterTraced(k.name, k.truth.min+span/4, k.truth.max-span/4, nil)
			default:
				_, err = owner.st.QueryDownsampleTraced(k.name, nil)
			}
			t1 := time.Now()
			if err != nil {
				l.fail(rungStore, queryNames[kind]+" "+k.name, err)
				continue
			}
			l.c.acct.attempted++
			l.rec.add(op, rungStore, queryNames[kind], t0, t1, k.nvals, 0)
		}
	}
	l.c.fixedOp = 0
}

// batches replays mput and mget of 8 consecutive keys: through the
// router (which splits the batch by owner and writes both replicas),
// straight to one shard, and as 8 direct store calls on that shard.
func (l *ladder) batches() {
	one := l.fleet.shards[0]
	for round := 0; round < ladderRounds; round++ {
		for g := 0; g+batchKeys <= len(l.ds.keys); g += batchKeys {
			ks := make([]*keyInfo, batchKeys)
			values := 0
			for i := range ks {
				ks[i] = &l.ds.keys[g+i]
				values += ks[i].nvals
			}
			op := l.rec.op()
			l.c.fixedOp = op
			l.c.mput(l.router(), ks)
			l.c.mput(shard(one), ks)
			t0 := time.Now()
			var perr error
			for _, k := range ks {
				if k.width == 32 {
					_, perr = one.st.Put32Traced(k.name, k.floats32(), nil)
				} else {
					_, perr = one.st.Put64Traced(k.name, k.floats64(), nil)
				}
				if perr != nil {
					break
				}
			}
			t1 := time.Now()
			if perr != nil {
				l.fail(rungStore, "mput", perr)
			} else {
				l.c.acct.attempted++
				l.rec.add(op, rungStore, "mput", t0, t1, values, 0)
			}

			op = l.rec.op()
			l.c.fixedOp = op
			l.c.mget(l.router(), ks, true)
			l.c.mget(shard(one), ks, true)
			t0 = time.Now()
			var gerr error
			for _, k := range ks {
				// GetTraced is what the mget handler calls per key.
				if _, _, _, gerr = one.st.GetTraced(k.name, nil); gerr != nil {
					break
				}
			}
			t1 = time.Now()
			if gerr != nil {
				l.fail(rungStore, "mget", gerr)
			} else {
				l.c.acct.attempted++
				l.rec.add(op, rungStore, "mget", t0, t1, values, 0)
			}
		}
	}
	l.c.fixedOp = 0
}

// cacheRungs measures the read cache on a fourth avrd with avrd's
// default 64 MiB cache (prefetch off, so only demand fills happen):
// seed, close and reopen — the reopen is store.open_s — then every
// key's first read is a miss, and once the asynchronous fills land,
// every read is a hit.
func (l *ladder) cacheRungs(dir string) (err error) {
	cfg := avrdStore(dir)
	cfg.Prefetch, cfg.CompactEvery = false, 0
	st, err := store.Open(cfg)
	if err != nil {
		return err
	}
	if err := seedDirect(st, l.ds, startSteps()); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st, err = store.Open(cfg)
	t1 := time.Now()
	if err != nil {
		return err
	}
	l.rec.add(l.rec.op(), rungStore, "open", t0, t1, int(l.ds.values), 0)
	if l.hot, err = serveNode("hot", st); err != nil {
		st.Close()
		return err
	}
	defer func() {
		if serr := l.hot.stop(); serr != nil && err == nil {
			err = serr
		}
	}()

	l.cachedReads("miss", store.CacheMiss)
	// Fills are asynchronous; wait until every line is resident.
	deadline := time.Now().Add(5 * time.Second)
	for st.CacheSnapshot().Lines < len(l.ds.keys) {
		if time.Now().After(deadline) {
			return fmt.Errorf("read cache holds %d of %d lines after 5 s", st.CacheSnapshot().Lines, len(l.ds.keys))
		}
		time.Sleep(2 * time.Millisecond)
	}
	for round := 0; round < ladderRounds; round++ {
		l.cachedReads("hit", store.CacheHit)
	}
	// The same hits through avrd's listener: X-AVR-Stage-cachehit.
	hot := target{base: l.hot.base, tier: "avrd", rung: rungAvrdHot}
	for i := range l.ds.keys {
		l.c.get(hot, &l.ds.keys[i], true)
	}
	return nil
}

// cachedReads reads every key through Store.Get32IntoCached /
// Get64IntoCached and requires each read to be served the way want says.
func (l *ladder) cachedReads(name string, want store.CacheSource) {
	var d32 []float32
	var d64 []float64
	for i := range l.ds.keys {
		k := &l.ds.keys[i]
		var src store.CacheSource
		var err error
		n := 0
		t0 := time.Now()
		if k.width == 32 {
			d32, src, err = l.hot.st.Get32IntoCached(d32[:0], k.name, nil)
			n = len(d32)
		} else {
			d64, src, err = l.hot.st.Get64IntoCached(d64[:0], k.name, nil)
			n = len(d64)
		}
		t1 := time.Now()
		switch {
		case err != nil || n != k.nvals:
			l.fail(rungCache, name+" "+k.name, fmt.Errorf("%d values, err %v", n, err))
		case src != want:
			l.fail(rungCache, name+" "+k.name, fmt.Errorf("served as %q, want %q", src, want))
		default:
			l.c.acct.attempted++
			l.rec.add(l.rec.op(), rungCache, name+k.class(), t0, t1, k.nvals, 0)
		}
	}
}
