package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func snap(accesses, cycles uint64) Counters {
	return Counters{
		Accesses:       accesses,
		Cycles:         cycles,
		Instructions:   cycles * 2,
		LLCMisses:      accesses / 4,
		DRAMReadBytes:  accesses * 64,
		DRAMWriteBytes: accesses * 16,
		Compresses:     accesses / 8,
		CompFromLines:  accesses * 2,
		CompToLines:    accesses,
	}
}

func TestCountersSubAddRoundTrip(t *testing.T) {
	a := snap(100, 1000)
	b := snap(250, 2600)
	d := b.Sub(a)
	if got := a.Add(d); !reflect.DeepEqual(got, b) {
		t.Errorf("a + (b-a) = %+v, want %+v", got, b)
	}
}

func TestCountersDerivedMetrics(t *testing.T) {
	c := Counters{Cycles: 1000, Instructions: 2500, LLCMisses: 5, CompFromLines: 160, CompToLines: 20}
	if got := c.IPC(); got != 2.5 {
		t.Errorf("IPC = %v, want 2.5", got)
	}
	if got := c.MPKI(); got != 2.0 {
		t.Errorf("MPKI = %v, want 2", got)
	}
	if got := c.CompressionRatio(); got != 8.0 {
		t.Errorf("ratio = %v, want 8", got)
	}
	var zero Counters
	if zero.IPC() != 0 || zero.MPKI() != 0 || zero.CompressionRatio() != 1 {
		t.Errorf("zero counters: IPC=%v MPKI=%v ratio=%v", zero.IPC(), zero.MPKI(), zero.CompressionRatio())
	}
}

func TestRecorderDeltasSumToTotal(t *testing.T) {
	r := NewRecorder(100, 64)
	r.Record(snap(100, 1000))
	r.Record(snap(200, 2500))
	r.Record(snap(300, 3100))
	final := snap(342, 3500)
	r.Finish(final)

	epochs := r.Epochs()
	if len(epochs) != 4 {
		t.Fatalf("epochs = %d, want 4", len(epochs))
	}
	if !epochs[3].Final {
		t.Error("last epoch not marked final")
	}
	var sum Counters
	for _, e := range epochs {
		sum = sum.Add(e.Delta)
	}
	if !reflect.DeepEqual(sum, final) {
		t.Errorf("delta sum = %+v, want %+v", sum, final)
	}
	if !reflect.DeepEqual(epochs[3].Total, final) {
		t.Errorf("final total = %+v, want %+v", epochs[3].Total, final)
	}
	for i, e := range epochs {
		if e.Index != uint64(i+1) {
			t.Errorf("epoch %d has index %d", i, e.Index)
		}
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(10, 4)
	for i := uint64(1); i <= 10; i++ {
		r.Record(snap(i*10, i*100))
	}
	if r.count != 10 {
		t.Errorf("count = %d, want 10", r.count)
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
	epochs := r.Epochs()
	if len(epochs) != 4 {
		t.Fatalf("retained = %d, want 4", len(epochs))
	}
	for i, e := range epochs {
		if want := uint64(7 + i); e.Index != want {
			t.Errorf("retained epoch %d has index %d, want %d", i, e.Index, want)
		}
	}
}

func TestRecorderSinkStreamsEveryEpoch(t *testing.T) {
	r := NewRecorder(10, 1) // ring of 1: the sink must still see everything
	var seen []uint64
	r.SetSink(func(e Epoch) { seen = append(seen, e.Index) })
	for i := uint64(1); i <= 5; i++ {
		r.Record(snap(i*10, i*100))
	}
	r.Finish(snap(55, 550))
	if want := []uint64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(seen, want) {
		t.Errorf("sink saw %v, want %v", seen, want)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(snap(1, 1)) // must not panic
	r.Finish(snap(2, 2))
	r.SetSink(func(Epoch) {})
	if r.Dropped() != 0 || r.Every() != 0 || r.Epochs() != nil {
		t.Error("nil recorder reports non-zero state")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("t", "u", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 8 {
		t.Errorf("count = %d, want 8", s.Count)
	}
	want := []Bucket{{Le: 1, Count: 2}, {Le: 2, Count: 2}, {Le: 4, Count: 2}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", s.Buckets, want)
	}
	if s.Overflow != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Errorf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
	if s.Mean() != (0.5+1+1.5+2+3+4+5+100)/8 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if s := h.Summary(); s.Count != 0 || s.Buckets != nil {
		t.Errorf("nil summary = %+v", s)
	}
}

func TestHistogramSummaryJSONRoundTrip(t *testing.T) {
	h := DRAMLatencyHistogram()
	h.Observe(40)
	h.Observe(200)
	h.Observe(5000)
	s := h.Summary()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip: %+v != %+v", back, s)
	}
}

func TestStandardHistogramsDistinctNames(t *testing.T) {
	names := map[string]bool{}
	for _, h := range []*Histogram{
		DRAMLatencyHistogram(), BlockSizeHistogram(), OutlierHistogram(), ReconErrorHistogram(),
	} {
		s := h.Summary()
		if s.Name == "" || names[s.Name] {
			t.Errorf("bad or duplicate histogram name %q", s.Name)
		}
		names[s.Name] = true
	}
}

func TestCSVWriter(t *testing.T) {
	var sb strings.Builder
	w := NewCSVWriter(&sb)
	e := Epoch{Index: 1, Delta: snap(10, 100), Total: snap(10, 100)}
	if err := w.WriteEpoch(e); err != nil {
		t.Fatal(err)
	}
	e2 := Epoch{Index: 2, Final: true, Delta: snap(5, 50), Total: snap(15, 150)}
	if err := w.WriteEpoch(e2); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2:\n%s", len(lines), sb.String())
	}
	if cols := strings.Count(lines[0], ","); strings.Count(lines[1], ",") != cols || strings.Count(lines[2], ",") != cols {
		t.Errorf("ragged CSV:\n%s", sb.String())
	}
	if !strings.HasPrefix(lines[1], "1,0,") || !strings.HasPrefix(lines[2], "2,1,") {
		t.Errorf("epoch/final columns wrong:\n%s", sb.String())
	}
}

func TestJSONLWriter(t *testing.T) {
	var sb strings.Builder
	w := NewJSONLWriter(&sb)
	if err := w.WriteEpoch(Epoch{Index: 1, Delta: snap(10, 100), Total: snap(10, 100)}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEpoch(Epoch{Index: 2, Final: true, Delta: snap(2, 20), Total: snap(12, 120)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		for _, k := range []string{"epoch", "ipc", "mpki", "compression_ratio", "delta", "total"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing %q", i, k)
			}
		}
	}
}

func TestNewEpochWriterUnknownFormat(t *testing.T) {
	if _, err := NewEpochWriter("xml", io.Discard); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestServeDebugExposesVarsAndPprof(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	StorePuts.Add(1)
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "avr.store_puts") {
		t.Errorf("/debug/vars: status %d, body %.200s", resp.StatusCode, body)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline: status %d", resp.StatusCode)
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	h := DRAMLatencyHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(123) }); n != 0 {
		t.Errorf("nil Histogram.Observe allocates %v/op", n)
	}
	r := NewRecorder(1, 128)
	c := snap(1, 10)
	if n := testing.AllocsPerRun(1000, func() { r.Record(c) }); n != 0 {
		t.Errorf("Recorder.Record allocates %v/op", n)
	}
	var nilR *Recorder
	if n := testing.AllocsPerRun(1000, func() { nilR.Record(c) }); n != 0 {
		t.Errorf("nil Recorder.Record allocates %v/op", n)
	}
}
