// Command avrstore packs, inspects and verifies persistent approximate
// block stores (internal/store) offline — the operational face of the
// store that scripts/store_smoke.sh and the crash-safety drills use.
//
// Subcommands:
//
//	avrstore pack -dir D -keys 8 -values 100000 -dist heat [-width 64] [-t1 X]
//	    Generate workload vectors, put them, and record a manifest
//	    (manifest.json in the store directory) naming each key's
//	    generator and seed so verify can regenerate the ground truth.
//
//	avrstore pack -addr A -manifest M [-keys N ...]
//	    Same, but write through a live avrd or avrrouter at host:port
//	    via PUT /v1/store/put. Against a router every key lands on two
//	    replicas. The manifest goes to -manifest (no store dir exists
//	    client-side).
//
//	avrstore inspect -dir D [-blocks]
//	    Print the store's stats snapshot as JSON; -blocks adds the
//	    per-key block layout.
//
//	avrstore verify -dir D [-allow-partial]
//	    Reopen the store, regenerate every manifest vector, and check
//	    each get: every value within the store's t1, bit-exact where the
//	    block table says the block was stored lossless. -allow-partial
//	    accepts vectors truncated by a crash (the recovered prefix must
//	    still verify) — without it any incomplete vector fails.
//
//	avrstore verify -addr A -manifest M [-allow-partial]
//	    Same ground truth, but through a live avrd or avrrouter: keys
//	    are enumerated via GET /v1/store/key (on a router that fans out
//	    to every shard and unions the answers), every manifest key must
//	    be present, and every GET /v1/store/get value must sit within
//	    the manifest t1 — whichever replica served it. This is the
//	    offline proof that read-any replication returns bounded values
//	    even with nodes down.
//
//	avrstore compact -dir D
//	    Run compaction passes until no segment qualifies, printing each
//	    pass's result.
//
//	avrstore query -dir D -key K [-op aggregate|filter|downsample] [-lo L -hi H]
//	    Answer one compressed-domain query from block summaries (no full
//	    decode) and print the result JSON, error bounds and
//	    bytes_touched/bytes_total included.
//
//	avrstore query -dir D -check
//	    Run every query op over every manifest key and verify the
//	    answers against regenerated ground truth: aggregates within
//	    their error bounds, filter brackets containing the exact match
//	    count, downsampled points within their per-point bounds.
//
// Exit status: 0 on success, 1 on any verification failure or error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"avr/internal/cliutil"
	"avr/internal/store"
	"avr/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "pack":
		err = cmdPack(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		cliutil.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: avrstore {pack|inspect|verify|compact|query} [flags]")
	os.Exit(2)
}

// manifest records what pack wrote, so verify can regenerate the exact
// ground truth without storing it.
type manifest struct {
	Width   int             `json:"width"`
	T1      float64         `json:"t1"`
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	Key    string `json:"key"`
	Dist   string `json:"dist"`
	Seed   uint64 `json:"seed"`
	Values int    `json:"values"`
}

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

func cmdPack(args []string) error {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required unless -addr)")
	addr := fs.String("addr", "", "write through a live avrd/avrrouter at host:port instead of a local -dir")
	addrFile := fs.String("addr-file", "", "read -addr from this file (written by -addr-file on the daemon)")
	manifestOut := fs.String("manifest", "", "manifest path (default <dir>/manifest.json; required with -addr)")
	keys := fs.Int("keys", 8, "number of keys to write")
	values := fs.Int("values", 100000, "values per key")
	dist := fs.String("dist", "heat", "value distribution: "+strings.Join(workloads.Distributions(), ", ")+", or mixed-all to cycle")
	width := fs.Int("width", 32, "value width in bits: 32 or 64")
	seed := fs.Uint64("seed", 1, "base generator seed (key i uses seed+i)")
	sync := fs.Bool("sync", false, "fsync after every put")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	fs.Parse(args)
	if a, err := resolveAddr(*addr, *addrFile); err != nil {
		return fmt.Errorf("pack: %w", err)
	} else if a != "" {
		if *manifestOut == "" {
			return errors.New("pack: -manifest is required with -addr (there is no store directory to default into)")
		}
		if *width != 32 && *width != 64 {
			return fmt.Errorf("pack: bad -width %d", *width)
		}
		return packRemote(a, *manifestOut, *keys, *values, *dist, *width, *seed, t1)
	}
	if *dir == "" {
		return errors.New("pack: -dir or -addr is required")
	}
	if *width != 32 && *width != 64 {
		return fmt.Errorf("pack: bad -width %d", *width)
	}

	s, err := store.Open(store.Config{Dir: *dir, T1: t1, SyncEveryPut: *sync})
	if err != nil {
		return err
	}
	defer s.Close()

	dists := []string{*dist}
	if *dist == "mixed-all" {
		dists = workloads.Distributions()
	}
	m := manifest{Width: *width, T1: s.T1()}
	for i := 0; i < *keys; i++ {
		e := manifestEntry{
			Key:    fmt.Sprintf("pack-%04d", i),
			Dist:   dists[i%len(dists)],
			Seed:   *seed + uint64(i),
			Values: *values,
		}
		var res store.PutResult
		if *width == 32 {
			vals, gerr := workloads.GenFloat32(e.Dist, e.Values, e.Seed)
			if gerr != nil {
				return gerr
			}
			res, err = s.Put32(e.Key, vals)
		} else {
			vals, gerr := workloads.GenFloat64(e.Dist, e.Values, e.Seed)
			if gerr != nil {
				return gerr
			}
			res, err = s.Put64(e.Key, vals)
		}
		if err != nil {
			return err
		}
		fmt.Printf("packed %s: %d values (%s), %d blocks (%d lossless), ratio %.2f\n",
			e.Key, res.Values, e.Dist, res.Blocks, res.LosslessBlocks, res.Ratio)
		m.Entries = append(m.Entries, e)
	}

	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	mp := *manifestOut
	if mp == "" {
		mp = manifestPath(*dir)
	}
	if err := os.WriteFile(mp, append(mb, '\n'), 0o644); err != nil {
		return err
	}
	st := s.Stats()
	fmt.Printf("packed %d keys: %.2f:1 on disk, %d segments, %d flagged blocks\n",
		len(m.Entries), st.AchievedRatio, st.Segments, st.FlaggedBlocks)
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	blocks := fs.Bool("blocks", false, "include the per-key block layout")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	fs.Parse(args)
	if *dir == "" {
		return errors.New("inspect: -dir is required")
	}

	s, err := store.Open(store.Config{Dir: *dir, T1: t1})
	if err != nil {
		return err
	}
	defer s.Close()

	out := struct {
		store.Stats
		Blocks map[string][]store.BlockInfo `json:"blocks,omitempty"`
	}{Stats: s.Stats()}
	if *blocks {
		out.Blocks = make(map[string][]store.BlockInfo)
		for _, k := range s.Keys() {
			bi, err := s.BlockInfos(k)
			if err != nil {
				return err
			}
			out.Blocks[k] = bi
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required unless -addr)")
	addr := fs.String("addr", "", "verify through a live avrd/avrrouter at host:port instead of a local -dir")
	addrFile := fs.String("addr-file", "", "read -addr from this file (written by -addr-file on the daemon)")
	manifestIn := fs.String("manifest", "", "manifest path (default <dir>/manifest.json; required with -addr)")
	allowPartial := fs.Bool("allow-partial", false, "accept crash-truncated vectors (recovered prefix must still verify)")
	fs.Parse(args)
	if a, err := resolveAddr(*addr, *addrFile); err != nil {
		return fmt.Errorf("verify: %w", err)
	} else if a != "" {
		if *manifestIn == "" {
			return errors.New("verify: -manifest is required with -addr")
		}
		return verifyRemote(a, *manifestIn, *allowPartial)
	}
	if *dir == "" {
		return errors.New("verify: -dir or -addr is required")
	}
	mp := *manifestIn
	if mp == "" {
		mp = manifestPath(*dir)
	}

	mb, err := os.ReadFile(mp)
	if err != nil {
		return fmt.Errorf("verify: reading manifest (run pack first): %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return fmt.Errorf("verify: bad manifest: %w", err)
	}

	s, err := store.Open(store.Config{Dir: *dir, T1: m.T1})
	if err != nil {
		return err
	}
	defer s.Close()
	t1 := s.T1()

	var failures, partial int
	for _, e := range m.Entries {
		n, perr := verifyEntry(s, m.Width, t1, e, *allowPartial)
		if perr != nil {
			fmt.Printf("FAIL %s: %v\n", e.Key, perr)
			failures++
			continue
		}
		if n < e.Values {
			partial++
			fmt.Printf("ok   %s: %d/%d values (truncated by crash), all within t1\n", e.Key, n, e.Values)
		} else {
			fmt.Printf("ok   %s: %d values within t1=%g\n", e.Key, n, t1)
		}
	}
	if failures > 0 {
		return fmt.Errorf("verify: %d of %d keys failed", failures, len(m.Entries))
	}
	fmt.Printf("verify: %d keys ok (%d partial) at t1=%g\n", len(m.Entries), partial, t1)
	return nil
}

// verifyEntry checks one key against its regenerated ground truth and
// returns how many values were served.
func verifyEntry(s *store.Store, width int, t1 float64, e manifestEntry, allowPartial bool) (int, error) {
	v32, v64, w, err := s.Get(e.Key)
	incomplete := errors.Is(err, store.ErrIncomplete)
	if err != nil && !incomplete {
		return 0, err
	}
	if incomplete && !allowPartial {
		return 0, errors.New("vector incomplete (crash-truncated); rerun with -allow-partial to accept the prefix")
	}
	if w != width {
		return 0, fmt.Errorf("width %d on disk, manifest says %d", w, width)
	}

	infos, err := s.BlockInfos(e.Key)
	if err != nil {
		return 0, err
	}
	lossless := make(map[int]bool)
	for _, bi := range infos {
		if bi.Lossless {
			lossless[bi.Index] = true
		}
	}

	check := func(i int, got, want float64, exact bool) error {
		if lossless[i/store.BlockValues] {
			if !exact {
				return fmt.Errorf("value %d: lossless block not bit-exact", i)
			}
			return nil
		}
		if math.Abs(got-want) > t1*math.Abs(want)*(1+1e-9) {
			return fmt.Errorf("value %d: |%g - %g| beyond t1=%g", i, got, want, t1)
		}
		return nil
	}

	if width == 32 {
		want, gerr := workloads.GenFloat32(e.Dist, e.Values, e.Seed)
		if gerr != nil {
			return 0, gerr
		}
		for i := range v32 {
			if err := check(i, float64(v32[i]), float64(want[i]),
				math.Float32bits(v32[i]) == math.Float32bits(want[i])); err != nil {
				return 0, err
			}
		}
		return len(v32), nil
	}
	want, gerr := workloads.GenFloat64(e.Dist, e.Values, e.Seed)
	if gerr != nil {
		return 0, gerr
	}
	for i := range v64 {
		if err := check(i, v64[i], want[i],
			math.Float64bits(v64[i]) == math.Float64bits(want[i])); err != nil {
			return 0, err
		}
	}
	return len(v64), nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	key := fs.String("key", "", "key to query (required unless -check)")
	op := fs.String("op", "aggregate", "query op: aggregate, filter or downsample")
	lo := fs.Float64("lo", 0, "filter: inclusive lower bound")
	hi := fs.Float64("hi", 0, "filter: inclusive upper bound")
	check := fs.Bool("check", false, "verify every query op over every manifest key against regenerated ground truth")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	fs.Parse(args)
	if *dir == "" {
		return errors.New("query: -dir is required")
	}

	if *check {
		return queryCheck(*dir, t1)
	}
	if *key == "" {
		return errors.New("query: -key is required (or -check)")
	}

	s, err := store.Open(store.Config{Dir: *dir, T1: t1})
	if err != nil {
		return err
	}
	defer s.Close()

	var res any
	switch *op {
	case "aggregate":
		res, err = s.QueryAggregate(*key)
	case "filter":
		res, err = s.QueryFilter(*key, *lo, *hi)
	case "downsample":
		res, err = s.QueryDownsample(*key)
	default:
		return fmt.Errorf("query: bad -op %q: want aggregate, filter or downsample", *op)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// queryCheck cross-checks the compressed-domain query engine against
// the manifest ground truth: the same vectors verify regenerates
// value-by-value must also answer every query within the reported
// bounds — the offline counterpart of avrload -mode query.
func queryCheck(dir string, t1 float64) error {
	mb, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return fmt.Errorf("query: reading manifest (run pack first): %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return fmt.Errorf("query: bad manifest: %w", err)
	}
	if t1 == 0 {
		t1 = m.T1
	}
	s, err := store.Open(store.Config{Dir: dir, T1: t1})
	if err != nil {
		return err
	}
	defer s.Close()

	var failures int
	var touched, total int64
	for _, e := range m.Entries {
		if err := queryCheckEntry(s, m.Width, e, &touched, &total); err != nil {
			fmt.Printf("FAIL %s: %v\n", e.Key, err)
			failures++
		} else {
			fmt.Printf("ok   %s: aggregate, %d filter bands and downsample within bounds\n",
				e.Key, len(checkBands(0, 0)))
		}
	}
	if failures > 0 {
		return fmt.Errorf("query: %d of %d keys failed", failures, len(m.Entries))
	}
	frac := 0.0
	if total > 0 {
		frac = float64(touched) / float64(total)
	}
	fmt.Printf("query: %d keys ok, aggregates touched %d of %d raw bytes (%.4f)\n",
		len(m.Entries), touched, total, frac)
	return nil
}

// checkBands derives the filter ranges the check exercises from the
// vector's exact min/max.
func checkBands(min, max float64) [][2]float64 {
	span := max - min
	return [][2]float64{
		{min, max},
		{min + span/4, max - span/4},
		{min + span/2.1, min + span/1.9},
	}
}

func queryCheckEntry(s *store.Store, width int, e manifestEntry, touched, total *int64) error {
	vals := make([]float64, e.Values)
	if width == 32 {
		w32, err := workloads.GenFloat32(e.Dist, e.Values, e.Seed)
		if err != nil {
			return err
		}
		for i, v := range w32 {
			vals[i] = float64(v)
		}
	} else {
		w64, err := workloads.GenFloat64(e.Dist, e.Values, e.Seed)
		if err != nil {
			return err
		}
		copy(vals, w64)
	}
	var sum, min, max float64
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		sum += v
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	tol := func(b float64) float64 { return b*(1+1e-9) + 1e-300 }

	agg, err := s.QueryAggregate(e.Key)
	if err != nil {
		return err
	}
	if !agg.Complete {
		return errors.New("vector incomplete (crash-truncated)")
	}
	if agg.Count != int64(len(vals)) {
		return fmt.Errorf("count %d, want %d", agg.Count, len(vals))
	}
	if d := math.Abs(agg.Sum - sum); d > tol(agg.ErrorBound) {
		return fmt.Errorf("|sum %g - exact %g| = %g beyond bound %g", agg.Sum, sum, d, agg.ErrorBound)
	}
	slack := 1e-9*math.Abs(min) + 1e-300
	if agg.Min > min+slack || min > agg.Min+agg.MinErrorBound+slack {
		return fmt.Errorf("exact min %g outside [%g, +%g]", min, agg.Min, agg.MinErrorBound)
	}
	slack = 1e-9*math.Abs(max) + 1e-300
	if agg.Max < max-slack || max < agg.Max-agg.MaxErrorBound-slack {
		return fmt.Errorf("exact max %g outside [-%g, %g]", max, agg.MaxErrorBound, agg.Max)
	}
	*touched += agg.BytesTouched
	*total += agg.BytesTotal

	for _, b := range checkBands(min, max) {
		if !(b[0] <= b[1]) {
			continue
		}
		fr, err := s.QueryFilter(e.Key, b[0], b[1])
		if err != nil {
			return err
		}
		var exact int64
		for _, v := range vals {
			if b[0] <= v && v <= b[1] {
				exact++
			}
		}
		if fr.MatchesMin > exact || exact > fr.MatchesMax {
			return fmt.Errorf("filter [%g, %g]: exact %d outside bracket [%d, %d]",
				b[0], b[1], exact, fr.MatchesMin, fr.MatchesMax)
		}
	}

	ds, err := s.QueryDownsample(e.Key)
	if err != nil {
		return err
	}
	want := (len(vals) + 15) / 16
	if len(ds.Points) != want {
		return fmt.Errorf("downsample produced %d points, want %d", len(ds.Points), want)
	}
	for g := range ds.Points {
		var gs float64
		for j := g * 16; j < g*16+16; j++ {
			if j < len(vals) {
				gs += vals[j]
			} else {
				gs += vals[len(vals)-1] // codec padding convention
			}
		}
		if d := math.Abs(ds.Points[g] - gs/16); d > tol(ds.Bounds[g]) {
			return fmt.Errorf("downsample point %d: |%g - exact %g| beyond bound %g",
				g, ds.Points[g], gs/16, ds.Bounds[g])
		}
	}
	return nil
}

func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	fs.Parse(args)
	if *dir == "" {
		return errors.New("compact: -dir is required")
	}

	s, err := store.Open(store.Config{Dir: *dir, T1: t1})
	if err != nil {
		return err
	}
	defer s.Close()

	start := time.Now()
	var passes int
	for {
		res, did, err := s.CompactOnce()
		if err != nil {
			return err
		}
		if !did {
			break
		}
		passes++
		fmt.Printf("compacted segment %d: moved %d frames (%d B), reclaimed %d B, recompress %d tried / %d won / %d skipped\n",
			res.Segment, res.FramesMoved, res.BytesMoved, res.BytesReclaimed,
			res.RecompressTried, res.RecompressWon, res.RecompressSkipped)
	}
	st := s.Stats()
	fmt.Printf("compact: %d passes in %s, debt now %.3f, %.2f:1 on disk\n",
		passes, time.Since(start).Round(time.Millisecond), st.CompactionDebt, st.AchievedRatio)
	return nil
}
