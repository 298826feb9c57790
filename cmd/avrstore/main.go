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
// Exit status: 0 on success, 1 on any verification failure or error, 2
// on bad usage.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"avr/internal/cliutil"
	"avr/internal/server"
	"avr/internal/store"
	"avr/internal/vec"
	"avr/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run runs one subcommand, writing its report to stdout, and returns the
// exit status: 2 for bad usage, 1 for a failed verification or any other
// error.
func run(args []string, stdout io.Writer) int {
	cmds := map[string]func([]string, io.Writer) error{
		"pack": cmdPack, "inspect": cmdInspect, "verify": cmdVerify, "compact": cmdCompact, "query": cmdQuery,
	}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintln(os.Stderr, "usage: avrstore {pack|inspect|verify|compact|query} [flags]")
		return 2
	}
	switch err := cmds[args[0]](args[1:], stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "avrstore:", err)
		return 2
	default:
		fmt.Fprintln(os.Stderr, "avrstore:", err)
		return 1
	}
}

// errUsage marks an error in how avrstore was called, as against one in
// what it found.
var errUsage = errors.New("usage")

func usageErr(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, a...))
}

// parse parses a subcommand's flags; the flag package has already said
// what was wrong.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	return nil
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

// plan names the keys pack writes: key i holds the values seed+i draws
// from dist, or from each distribution in turn for mixed-all.
func plan(width int, t1 float64, keys, values int, dist string, seed uint64) manifest {
	dists := []string{dist}
	if dist == "mixed-all" {
		dists = workloads.Distributions()
	}
	m := manifest{Width: width, T1: t1}
	for i := range keys {
		m.Entries = append(m.Entries, manifestEntry{
			Key: fmt.Sprintf("pack-%04d", i), Dist: dists[i%len(dists)], Seed: seed + uint64(i), Values: values,
		})
	}
	return m
}

func (m manifest) write(path string) error {
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(mb, '\n'), 0o644)
}

func readManifest(path string) (manifest, error) {
	var m manifest
	mb, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("reading manifest (run pack first): %w", err)
	}
	if err := json.Unmarshal(mb, &m); err != nil {
		return m, fmt.Errorf("bad manifest: %w", err)
	}
	return m, nil
}

// gen regenerates the entry's values: the ground truth the store is held
// to.
func (e manifestEntry) gen(width int) (vec.Vec, error) {
	return cliutil.GenVec(e.Dist, e.Values, width, e.Seed)
}

func cmdPack(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pack", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required unless -addr)")
	addr := fs.String("addr", "", "write through a live avrd/avrrouter at host:port instead of a local -dir")
	addrFile := fs.String("addr-file", "", "read -addr from this file (written by -addr-file on the daemon)")
	manifestOut := fs.String("manifest", "", "manifest path (default <dir>/manifest.json; required with -addr)")
	keys := fs.Int("keys", 8, "number of keys to write")
	values := fs.Int("values", 100000, "values per key")
	dist := fs.String("dist", "heat", "value distribution: "+strings.Join(workloads.Distributions(), ", ")+", or mixed-all to cycle")
	width := fs.Int("width", 32, "value width in bits: 32 or 64")
	seed := fs.Uint64("seed", 1, "base generator seed (key i uses seed+i)")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *width != 32 && *width != 64 {
		return usageErr("pack: bad -width %d", *width)
	}
	if a, err := resolveAddr(*addr, *addrFile); err != nil {
		return fmt.Errorf("pack: %w", err)
	} else if a != "" {
		if *manifestOut == "" {
			return usageErr("pack: -manifest is required with -addr (there is no store directory to default into)")
		}
		return packRemote(out, a, *manifestOut, plan(*width, server.QuantizeT1(t1), *keys, *values, *dist, *seed))
	}
	if *dir == "" {
		return usageErr("pack: -dir or -addr is required")
	}

	s, err := store.Open(store.Config{Dir: *dir, T1: t1})
	if err != nil {
		return err
	}
	defer s.Close()

	m := plan(*width, s.T1(), *keys, *values, *dist, *seed)
	for _, e := range m.Entries {
		vals, err := e.gen(*width)
		if err != nil {
			return err
		}
		res, err := s.PutVec(e.Key, vals, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "packed %s: %d values (%s), %d blocks (%d lossless), ratio %.2f\n",
			e.Key, res.Values, e.Dist, res.Blocks, res.LosslessBlocks, res.Ratio)
	}
	mp := *manifestOut
	if mp == "" {
		mp = manifestPath(*dir)
	}
	if err := m.write(mp); err != nil {
		return err
	}
	st := s.Stats()
	fmt.Fprintf(out, "packed %d keys: %.2f:1 on disk, %d segments, %d flagged blocks\n",
		len(m.Entries), st.AchievedRatio, st.Segments, st.FlaggedBlocks)
	return nil
}

func cmdInspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	blocks := fs.Bool("blocks", false, "include the per-key block layout")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return usageErr("inspect: -dir is required")
	}

	s, err := store.Open(store.Config{Dir: *dir, T1: t1})
	if err != nil {
		return err
	}
	defer s.Close()

	rep := struct {
		store.Stats
		Blocks map[string][]store.BlockInfo `json:"blocks,omitempty"`
	}{Stats: s.Stats()}
	if *blocks {
		rep.Blocks = make(map[string][]store.BlockInfo)
		for _, k := range s.Keys() {
			bi, err := s.BlockInfos(k)
			if err != nil {
				return err
			}
			rep.Blocks[k] = bi
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required unless -addr)")
	addr := fs.String("addr", "", "verify through a live avrd/avrrouter at host:port instead of a local -dir")
	addrFile := fs.String("addr-file", "", "read -addr from this file (written by -addr-file on the daemon)")
	manifestIn := fs.String("manifest", "", "manifest path (default <dir>/manifest.json; required with -addr)")
	allowPartial := fs.Bool("allow-partial", false, "accept crash-truncated vectors (recovered prefix must still verify)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if a, err := resolveAddr(*addr, *addrFile); err != nil {
		return fmt.Errorf("verify: %w", err)
	} else if a != "" {
		if *manifestIn == "" {
			return usageErr("verify: -manifest is required with -addr")
		}
		return verifyRemote(out, a, *manifestIn, *allowPartial)
	}
	if *dir == "" {
		return usageErr("verify: -dir or -addr is required")
	}
	mp := *manifestIn
	if mp == "" {
		mp = manifestPath(*dir)
	}
	m, err := readManifest(mp)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	s, err := store.Open(store.Config{Dir: *dir, T1: m.T1})
	if err != nil {
		return err
	}
	defer s.Close()
	m.T1 = s.T1()
	return verifyEach(out, m, "", func(e manifestEntry) (int, error) {
		return verifyEntry(s, m.Width, m.T1, e, *allowPartial)
	})
}

// verifyEach checks every manifest key with check, which returns how many
// values were served (fewer than written: an accepted crash-truncated
// prefix), and prints one line per key; via says where they were read.
func verifyEach(out io.Writer, m manifest, via string, check func(manifestEntry) (int, error)) error {
	var failures, partial int
	for _, e := range m.Entries {
		n, err := check(e)
		switch {
		case err != nil:
			fmt.Fprintf(out, "FAIL %s: %v\n", e.Key, err)
			failures++
		case n < e.Values:
			partial++
			fmt.Fprintf(out, "ok   %s: %d/%d values (truncated by crash), all within t1\n", e.Key, n, e.Values)
		default:
			fmt.Fprintf(out, "ok   %s: %d values within t1=%g\n", e.Key, n, m.T1)
		}
	}
	if failures > 0 {
		return fmt.Errorf("verify: %d of %d keys failed%s", failures, len(m.Entries), via)
	}
	fmt.Fprintf(out, "verify: %d keys ok (%d partial)%s at t1=%g\n", len(m.Entries), partial, via, m.T1)
	return nil
}

// verifyEntry checks one key against its regenerated ground truth —
// every value within t1, and bit-exact where the block table says the
// block was stored lossless — and returns how many values were served.
func verifyEntry(s *store.Store, width int, t1 float64, e manifestEntry, allowPartial bool) (int, error) {
	got, _, err := s.GetVec(vec.Vec{}, e.Key, false, nil)
	incomplete := errors.Is(err, store.ErrIncomplete)
	if err != nil && !incomplete {
		return 0, err
	}
	if incomplete && !allowPartial {
		return 0, errors.New("vector incomplete (crash-truncated); rerun with -allow-partial to accept the prefix")
	}
	if got.Width != width {
		return 0, fmt.Errorf("width %d on disk, manifest says %d", got.Width, width)
	}
	want, err := e.gen(width)
	if err != nil {
		return 0, err
	}
	n := got.Len()
	if n > want.Len() {
		return 0, fmt.Errorf("%d values served, the manifest wrote %d", n, want.Len())
	}
	want = want.Slice(0, n)
	if err := store.WithinT1(got, want, t1); err != nil {
		return 0, err
	}
	infos, err := s.BlockInfos(e.Key)
	if err != nil {
		return 0, err
	}
	for _, bi := range infos {
		lo := bi.Index * store.BlockValues
		hi := min(lo+store.BlockValues, n)
		if bi.Lossless && lo < hi && !bytes.Equal(got.Slice(lo, hi).AppendLE(nil), want.Slice(lo, hi).AppendLE(nil)) {
			return 0, fmt.Errorf("block %d: lossless block not bit-exact", bi.Index)
		}
	}
	return n, nil
}

func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	key := fs.String("key", "", "key to query (required unless -check)")
	op := fs.String("op", "aggregate", "query op: aggregate, filter or downsample")
	lo := fs.Float64("lo", 0, "filter: inclusive lower bound")
	hi := fs.Float64("hi", 0, "filter: inclusive upper bound")
	check := fs.Bool("check", false, "verify every query op over every manifest key against regenerated ground truth")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return usageErr("query: -dir is required")
	}

	if *check {
		return queryCheck(out, *dir, t1)
	}
	if *key == "" {
		return usageErr("query: -key is required (or -check)")
	}

	s, err := store.Open(store.Config{Dir: *dir, T1: t1})
	if err != nil {
		return err
	}
	defer s.Close()

	var res any
	switch *op {
	case "aggregate":
		res, err = s.QueryAggregateTraced(*key, nil)
	case "filter":
		res, err = s.QueryFilterTraced(*key, *lo, *hi, nil)
	case "downsample":
		res, err = s.QueryDownsampleTraced(*key, nil)
	default:
		return usageErr("query: bad -op %q: want aggregate, filter or downsample", *op)
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// queryCheck cross-checks the compressed-domain query engine against
// the manifest ground truth: the same vectors verify regenerates
// value-by-value must also answer every query within the reported
// bounds — the offline counterpart of avrload -mode query.
func queryCheck(out io.Writer, dir string, t1 float64) error {
	m, err := readManifest(manifestPath(dir))
	if err != nil {
		return fmt.Errorf("query: %w", err)
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
			fmt.Fprintf(out, "FAIL %s: %v\n", e.Key, err)
			failures++
		} else {
			fmt.Fprintf(out, "ok   %s: aggregate, 3 filter bands and downsample within bounds\n", e.Key)
		}
	}
	if failures > 0 {
		return fmt.Errorf("query: %d of %d keys failed", failures, len(m.Entries))
	}
	frac := 0.0
	if total > 0 {
		frac = float64(touched) / float64(total)
	}
	fmt.Fprintf(out, "query: %d keys ok, aggregates touched %d of %d raw bytes (%.4f)\n",
		len(m.Entries), touched, total, frac)
	return nil
}

// queryCheckEntry runs every query op over one key and holds each answer
// to the key's regenerated ground truth.
func queryCheckEntry(s *store.Store, width int, e manifestEntry, touched, total *int64) error {
	vals, err := e.gen(width)
	if err != nil {
		return err
	}
	gt := store.NewTruth(vals)
	agg, err := s.QueryAggregateTraced(e.Key, nil)
	if err != nil {
		return err
	}
	if err := gt.Aggregate(agg); err != nil {
		return err
	}
	*touched += agg.BytesTouched
	*total += agg.BytesTotal
	for _, b := range gt.Bands() {
		fr, err := s.QueryFilterTraced(e.Key, b[0], b[1], nil)
		if err != nil {
			return err
		}
		if err := gt.Filter(fr); err != nil {
			return err
		}
	}
	ds, err := s.QueryDownsampleTraced(e.Key, nil)
	if err != nil {
		return err
	}
	return gt.Downsample(ds)
}

func cmdCompact(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	var t1 float64
	cliutil.RegisterT1(fs, &t1)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return usageErr("compact: -dir is required")
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
		fmt.Fprintf(out, "compacted segment %d: moved %d frames (%d B), reclaimed %d B, recompress %d tried / %d won / %d skipped\n",
			res.Segment, res.FramesMoved, res.BytesMoved, res.BytesReclaimed,
			res.RecompressTried, res.RecompressWon, res.RecompressSkipped)
	}
	st := s.Stats()
	fmt.Fprintf(out, "compact: %d passes in %s, debt now %.3f, %.2f:1 on disk\n",
		passes, time.Since(start).Round(time.Millisecond), st.CompactionDebt, st.AchievedRatio)
	return nil
}
