package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"avr/internal/cluster"
	"avr/internal/server"
	"avr/internal/store"
)

// newAvrd serves an avrd over a fresh store (read cache on) through
// wrap, which a corruption case uses to doctor what the daemon answers.
func newAvrd(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir(), CacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wrap(server.New(server.Config{Store: st, T1: st.T1()}).Handler()))
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

// newRouter serves an avrrouter over three avrd shards through wrap.
func newRouter(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	topo := cluster.Topology{VNodes: 64}
	for i := 0; i < 3; i++ {
		topo.Nodes = append(topo.Nodes, cluster.Node{Name: fmt.Sprintf("n%d", i), Addr: newAvrd(t, unchanged)})
	}
	ro, err := cluster.New(cluster.Config{Topology: topo, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(wrap(ro.Handler()))
	t.Cleanup(func() {
		ts.Close()
		ro.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

func unchanged(h http.Handler) http.Handler { return h }

// corruptOnce doctors the first 200 answer to path with edit, which
// returns the new body (nil to leave this answer alone) and may set the
// status, and passes every other response through as served.
func corruptOnce(path string, edit func(r *http.Request, status *int, body []byte) []byte) func(http.Handler) http.Handler {
	var done atomic.Bool
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			code, body := rec.Code, rec.Body.Bytes()
			if r.URL.Path == path && code == http.StatusOK {
				status := code
				if out := edit(r, &status, body); out != nil && done.CompareAndSwap(false, true) {
					code, body = status, out
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(code)
			w.Write(body)
		})
	}
}

// beyondT1 moves the first fp32 value of raw by at least its own
// magnitude and at least 1, far outside any t1 below 1.
func beyondT1(raw []byte) []byte {
	out := bytes.Clone(raw)
	v := float64(math.Float32frombits(binary.LittleEndian.Uint32(out)))
	binary.LittleEndian.PutUint32(out, math.Float32bits(float32(v+1+math.Abs(v))))
	return out
}

// load runs avrload against addr and returns its exit status and report.
func load(t *testing.T, addr string, args ...string) (int, report) {
	t.Helper()
	var out bytes.Buffer
	code := run(append([]string{"-addr", addr, "-c", "2", "-duration", "300ms", "-values", "2048"}, args...), &out)
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report %q: %v", out.String(), err)
	}
	return code, rep
}

var modes = []struct {
	name string
	tier func(*testing.T, func(http.Handler) http.Handler) string
	args []string
}{
	{"codec", newAvrd, []string{"-mode", "codec"}},
	{"store", newAvrd, []string{"-mode", "store"}},
	{"storehot", newAvrd, []string{"-mode", "storehot", "-hotkeys", "8"}},
	{"query", newAvrd, []string{"-mode", "query", "-dist", "ramp", "-maxtraffic", "0.125"}},
	{"cluster", newRouter, []string{"-mode", "cluster", "-batch", "4"}},
}

// TestVerifierPassesCleanRuns drives each mode against an honest tier:
// exit 0, no corrupt response, and in storehot the read cache's hits.
func TestVerifierPassesCleanRuns(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			code, rep := load(t, m.tier(t, unchanged), m.args...)
			if code != 0 || rep.Corrupt != 0 || rep.OK == 0 {
				t.Fatalf("exit %d, report %+v: want exit 0, ok > 0, corrupt 0", code, rep)
			}
			if m.name == "storehot" && rep.CacheHits == 0 {
				t.Errorf("report %+v: no cache hits with the read cache on", rep)
			}
		})
	}
}

// TestVerifierCatchesCorruption doctors one served answer per mode and
// requires the run to count it and exit 1.
func TestVerifierCatchesCorruption(t *testing.T) {
	cases := []struct {
		name string
		tier func(*testing.T, func(http.Handler) http.Handler) string
		path string
		edit func(r *http.Request, status *int, body []byte) []byte
		args []string
	}{
		// A doctored magic, which the decode leg would refuse as an
		// error: only the byte compare of the encode leg can count it.
		{"encode byte", newAvrd, "/v1/encode", func(_ *http.Request, _ *int, b []byte) []byte {
			out := bytes.Clone(b)
			out[0] ^= 0x40
			return out
		}, []string{"-mode", "codec"}},
		{"decode value", newAvrd, "/v1/decode", func(_ *http.Request, _ *int, b []byte) []byte {
			return beyondT1(b)
		}, []string{"-mode", "codec"}},
		{"store get value", newAvrd, "/v1/store/get", func(_ *http.Request, _ *int, b []byte) []byte {
			return beyondT1(b)
		}, []string{"-mode", "store"}},
		// A torn vector served as its prefix: the key was written and
		// acknowledged this run, so a 206 for it is corruption too.
		{"store get torn", newAvrd, "/v1/store/get", func(_ *http.Request, status *int, b []byte) []byte {
			*status = http.StatusPartialContent
			return b[:len(b)/2]
		}, []string{"-mode", "store"}},
		{"hot get value", newAvrd, "/v1/store/get", func(_ *http.Request, _ *int, b []byte) []byte {
			return beyondT1(b)
		}, []string{"-mode", "storehot", "-hotkeys", "8"}},
		{"aggregate sum", newAvrd, "/v1/store/query", func(r *http.Request, _ *int, b []byte) []byte {
			if r.URL.Query().Get("op") != "" {
				return nil
			}
			var agg store.AggregateResult
			if json.Unmarshal(b, &agg) != nil {
				return nil
			}
			agg.Sum += 2*agg.ErrorBound + 1
			out, _ := json.Marshal(agg)
			return out
		}, []string{"-mode", "query", "-dist", "ramp"}},
		{"mget item", newRouter, "/v1/store/mget", func(_ *http.Request, _ *int, b []byte) []byte {
			var res server.BatchGetResult
			if json.Unmarshal(b, &res) != nil || len(res.Results) == 0 || !res.Results[0].OK {
				return nil
			}
			res.Results[0].Data = beyondT1(res.Results[0].Data)
			out, _ := json.Marshal(res)
			return out
		}, []string{"-mode", "cluster", "-batch", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, rep := load(t, tc.tier(t, corruptOnce(tc.path, tc.edit)), tc.args...)
			if code != 1 || rep.Corrupt == 0 {
				t.Fatalf("exit %d, report %+v: want exit 1, corrupt > 0", code, rep)
			}
		})
	}
	// The traffic budget fails a clean store whose aggregates read more
	// than the budget allows.
	t.Run("traffic budget", func(t *testing.T) {
		code, rep := load(t, newAvrd(t, unchanged), "-mode", "query", "-dist", "ramp", "-maxtraffic", "0.001")
		if code != 1 || rep.Corrupt == 0 {
			t.Fatalf("exit %d, report %+v: want exit 1, corrupt > 0", code, rep)
		}
	})
}

// TestVerifierFailsWithoutSuccess holds the other exit-1 condition: a run
// in which no request succeeded.
func TestVerifierFailsWithoutSuccess(t *testing.T) {
	refuse := func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "down", http.StatusInternalServerError)
		})
	}
	code, rep := load(t, newAvrd(t, refuse), "-mode", "store")
	if code != 1 || rep.OK != 0 || rep.Errors == 0 {
		t.Fatalf("exit %d, report %+v: want exit 1, ok 0, errors > 0", code, rep)
	}
}
