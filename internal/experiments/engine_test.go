package experiments

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"avr/internal/sim"
	"avr/internal/workloads"
)

// TestRunDeduplicatesConcurrentCallers covers the former
// check-unlock-run race in Run: many goroutines racing on the same key
// must trigger exactly one simulation and all observe the same entry.
func TestRunDeduplicatesConcurrentCallers(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	const callers = 8
	entries := make([]*Entry, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entries[i], errs[i] = r.Run("heat", sim.Baseline)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if entries[i] != entries[0] {
			t.Errorf("caller %d got a different entry", i)
		}
	}
	if n := r.Simulations(); n != 1 {
		t.Errorf("concurrent callers triggered %d simulations, want exactly 1", n)
	}
}

// TestPrefetchDeduplicatesOverlap runs an overlapping matrix prefetch
// twice concurrently; the total simulation count must still equal the
// number of distinct keys.
func TestPrefetchDeduplicatesOverlap(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	benches := []string{"heat", "kmeans"}
	designs := []sim.Design{sim.Baseline, sim.ZeroAVR}
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- r.Prefetch(benches, designs)
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Simulations(); n != int64(len(benches)*len(designs)) {
		t.Errorf("simulations = %d, want %d", n, len(benches)*len(designs))
	}
}

// TestEqualSpecsSimulateOnce checks the memo is keyed by what a run
// executes, not by its label: the LLC sweep's point at the preset's own
// capacity is the matrix cell under another label, so the two are one
// simulation, and both read back its entry.
func TestEqualSpecsSimulateOnce(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	plain := r.matrix("heat", sim.Baseline)
	swept := r.llcUnit("heat", sim.Baseline, plain.cfg.LLCBytes)
	if plain.label == swept.label {
		t.Fatalf("both units are labelled %s", plain.label)
	}
	got, err := r.resolve([]unit{plain, swept})
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Simulations(); n != 1 {
		t.Errorf("two labels of one spec ran %d simulations, want 1", n)
	}
	if got.of(plain) != got.of(swept) {
		t.Error("the two labels read back different entries")
	}
}

// lockedBuffer collects progress lines written by concurrent workers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestProgressReporting checks the progress stream: one line per
// simulated run, named by its memo key, carrying the pass's total — and
// none for a memo hit.
func TestProgressReporting(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	var out lockedBuffer
	r.Logger = slog.New(slog.NewTextHandler(&out, nil))
	designs := []sim.Design{sim.Baseline, sim.ZeroAVR}
	for pass := 0; pass < 2; pass++ { // the second pass only hits the memo
		if err := r.Prefetch([]string{"heat"}, designs); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSuffix(out.buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("progress lines = %q, want 2 lines", lines)
	}
	for _, l := range lines {
		for _, want := range []string{"key=heat/", "scale=small", "done=", "total=2", "dur="} {
			if !strings.Contains(l, want) {
				t.Errorf("progress line missing %s: %q", want, l)
			}
		}
	}
	for _, d := range designs {
		if want := "key=heat/" + d.String(); strings.Count(out.buf.String(), want+" ") != 1 {
			t.Errorf("want exactly one line with %s: %q", want, lines)
		}
	}
}

// TestProgressExplicitLogger checks progress goes through whatever
// handler the caller's Logger has, with the run's identity as
// structured attributes.
func TestProgressExplicitLogger(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	var out lockedBuffer
	r.Logger = slog.New(slog.NewJSONHandler(&out, nil))
	if err := r.Prefetch([]string{"heat"}, []sim.Design{sim.Baseline}); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Msg   string `json:"msg"`
		Key   string `json:"key"`
		Scale string `json:"scale"`
	}
	if err := json.Unmarshal(out.buf.Bytes(), &line); err != nil {
		t.Fatalf("progress line not JSON: %q (%v)", out.buf.String(), err)
	}
	if line.Msg != "run done" || line.Key != "heat/baseline" || line.Scale != "small" {
		t.Errorf("logged %+v", line)
	}
}

// TestRunUnknownBenchmarkConcurrent checks a failed run reaches every
// caller racing on its slot as an error, never as an empty success.
func TestRunUnknownBenchmarkConcurrent(t *testing.T) {
	r := NewRunner(workloads.ScaleSmall)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run("no-such-benchmark", sim.Baseline); err == nil {
				t.Error("unknown benchmark accepted")
			}
		}()
	}
	wg.Wait()
}
