package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeOptions is the benchmark's run shape shrunk to about a second on
// 32 keys, with the simulator cut to its cheapest benchmark.
func smokeOptions(t *testing.T, workload string) options {
	opt := defaultOptions()
	opt.workload = workload
	opt.seed = 1
	opt.seconds = 1
	opt.warmup = 200 * time.Millisecond
	opt.keys = 32
	opt.setups = 1
	opt.workdir = t.TempDir()
	opt.benches = []string{"bscholes"}
	return opt
}

// Every workload runs clean and reports every end-to-end metric, none 0.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep, err := plainRun(io.Discard, smokeOptions(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("attempted %d, failed %d, correct %v", rep.Attempted, rep.Failed, rep.Correct)
			}
			if len(rep.Metrics) != len(endToEndDefs) {
				t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(endToEndDefs))
			}
			for _, d := range endToEndDefs {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %+v (present %v)", d.Name, v, ok)
				}
			}
		})
	}
}

// The traced run reports every per-layer metric, and the layers show up
// where they should: each of codec-encode, codec-decode, readcache-hit,
// cluster and sim is called on one workload and never on another. Three
// of the printed metrics are then re-derived from the spans file alone.
func TestSmokeTraced(t *testing.T) {
	calls := map[string]map[string]float64{}
	for _, name := range []string{"serve_mixed", "cluster_batch", "sim_matrix"} {
		t.Run(name, func(t *testing.T) {
			opt := smokeOptions(t, name)
			opt.seconds = 2 // the traced closed loop runs for half of it
			spansPath := filepath.Join(opt.workdir, "spans.jsonl")
			var out strings.Builder
			rep, err := tracedRun(&out, opt, spansPath)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("attempted %d, failed %d\n%s", rep.Attempted, rep.Failed, out.String())
			}
			if len(rep.Metrics) != len(perLayerDefs) {
				t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(perLayerDefs))
			}
			calls[name] = map[string]float64{}
			for _, d := range perLayerDefs {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %+v (present %v)", d.Name, v, ok)
				}
				calls[name][d.Name] = v.Value
			}

			f, err := os.Open(spansPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, err := readSpans(f)
			if err != nil {
				t.Fatal(err)
			}
			again := deriveLadder(spans)
			for k, v := range deriveClient(spans) {
				again[k] = v
			}
			for k, v := range deriveSim(spans) {
				again[k] = v
			}
			check := []string{"codec.encode_ns_per_value", "server.get_self_us", "cluster.mput_hop_us_per_key", "client.get_p50_ms"}
			if name == "sim_matrix" {
				check = []string{"sim.bscholes_avr_host_s", "sim.baseline_host_s", "sim.compress_ns_per_block"}
			}
			for _, k := range check {
				if got, want := again[k], rep.Metrics[k].Value; got != want || (want == 0 && k != "client.get_p50_ms") {
					t.Errorf("%s re-derived from %s = %v, printed %v", k, spansPath, got, want)
				}
			}
			if name != "sim_matrix" && !strings.Contains(out.String(), "unattributed") {
				t.Errorf("the traced run printed no budget with an unattributed row:\n%s", out.String())
			}
		})
	}
	for _, c := range []struct{ metric, on, off string }{
		{"codec.encode_calls_per_op", "cluster_batch", "sim_matrix"},
		{"codec.decode_calls_per_op", "cluster_batch", "sim_matrix"},
		{"readcache.hits_per_op", "serve_mixed", "sim_matrix"},
		{"cluster.calls_per_op", "cluster_batch", "serve_mixed"},
		{"sim.cells_per_op", "sim_matrix", "serve_mixed"},
	} {
		if calls[c.on] == nil || calls[c.off] == nil {
			continue // the subtest already failed
		}
		if on, off := calls[c.on][c.metric], calls[c.off][c.metric]; !(on > 0) || off != 0 {
			t.Errorf("%s: %v on %s (want > 0), %v on %s (want 0)", c.metric, on, c.on, off, c.off)
		}
	}
}

// A failed op is booked under the tier that answered and the check that
// failed, and the table says so.
func TestFailureAccounting(t *testing.T) {
	n, err := startNode("avrd", avrdStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer n.stop()
	ds, err := genDataset(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := newCaller(nil)
	defer c.close()
	at := target{base: n.base, tier: "avrd", rung: rungClient}
	if c.get(at, &ds.keys[0], true) {
		t.Fatal("a get of a key never stored succeeded")
	}
	if !c.put(at, &ds.keys[0]) || !c.get(at, &ds.keys[0], true) {
		t.Fatalf("put then get failed:\n%s", c.acct.failureTable())
	}
	// The right key's bytes checked against another key's truth: in length
	// but out of bound.
	wrong := ds.keys[1]
	wrong.name = ds.keys[0].name
	if c.get(at, &wrong, true) {
		t.Fatal("values of another key passed the bound check")
	}
	if c.acct.attempted != 4 || c.acct.failed != 2 {
		t.Errorf("attempted %d failed %d, want 4 and 2", c.acct.attempted, c.acct.failed)
	}
	table := c.acct.failureTable()
	for _, want := range []string{"avrd: status 404", "avrd: bound"} {
		if !strings.Contains(table, want) {
			t.Errorf("failure table lacks %q:\n%s", want, table)
		}
	}
}

// readSpans reads a spans file back.
func readSpans(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}
