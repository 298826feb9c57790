package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"avr/internal/obs"
)

// Nil receivers must be complete no-ops: an untraced server passes nil
// spans through every instrumentation point.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start()
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	if got := sp.Begin(); !got.IsZero() {
		t.Fatalf("nil span Begin = %v, want zero time (no clock read)", got)
	}
	sp.End(StageEncode, time.Now())
	sp.Add(StageQueue, time.Second)
	if d := sp.StageDur(StageQueue); d != 0 {
		t.Fatalf("nil span StageDur = %v, want 0", d)
	}
	if id := sp.ID(); id != 0 {
		t.Fatalf("nil span ID = %d, want 0", id)
	}
	h := http.Header{}
	sp.WriteHeaders(h)
	if len(h) != 0 {
		t.Fatalf("nil span WriteHeaders wrote %v", h)
	}
	tr.Finish("op", sp) // must not panic
}

func TestStageNamesAndHeaders(t *testing.T) {
	want := map[Stage]string{
		StageQueue:    "queue",
		StagePool:     "pool",
		StageEncode:   "encode",
		StageDecode:   "decode",
		StageSegRead:  "segread",
		StageSegWrite: "segwrite",
		StageLock:     "lockwait",
		StageQuery:    "query",
		StageRoute:    "route",
		StageFanout:   "fanout",
		StageCacheHit: "cachehit",
	}
	if len(want) != NumStages {
		t.Fatalf("test covers %d stages, NumStages = %d", len(want), NumStages)
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st.String(), name)
		}
		wantHdr := "X-Avr-Stage-" + string(name[0]-'a'+'A') + name[1:]
		if HeaderKey(st) != wantHdr {
			t.Errorf("HeaderKey(%s) = %q, want %q", name, HeaderKey(st), wantHdr)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Errorf("out-of-range stage String = %q", Stage(200).String())
	}
}

func TestWriteHeaders(t *testing.T) {
	tr := New(Config{})
	sp := tr.Start()
	sp.Add(StageEncode, 1500*time.Nanosecond)
	sp.Add(StageQueue, 42*time.Nanosecond)
	h := http.Header{}
	sp.WriteHeaders(h)

	id := h.Get("X-AVR-Trace")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("trace id %q not 16 hex digits", id)
	}
	if id != FormatID(sp.ID()) {
		t.Fatalf("header id %q != FormatID(span id) %q", id, FormatID(sp.ID()))
	}
	if got := h.Get(HeaderKey(StageEncode)); got != "1500" {
		t.Fatalf("encode stage header = %q, want 1500", got)
	}
	if got := h.Get(HeaderKey(StageQueue)); got != "42" {
		t.Fatalf("queue stage header = %q, want 42", got)
	}
	// Untouched stages must not emit headers.
	if got := h.Get(HeaderKey(StageDecode)); got != "" {
		t.Fatalf("untouched decode stage emitted header %q", got)
	}
	tr.Finish("test", sp)
}

func TestFormatID(t *testing.T) {
	cases := map[uint64]string{
		0:                  "0000000000000000",
		1:                  "0000000000000001",
		0xdeadbeef:         "00000000deadbeef",
		0xffffffffffffffff: "ffffffffffffffff",
	}
	for id, want := range cases {
		if got := FormatID(id); got != want {
			t.Errorf("FormatID(%#x) = %q, want %q", id, got, want)
		}
	}
}

// stageSummaries snapshots every stage histogram, indexed by Stage.
func stageSummaries() [NumStages]obs.Summary {
	var out [NumStages]obs.Summary
	for i, h := range stageHists {
		out[i] = h.Summary()
	}
	return out
}

// Finish must feed the per-stage histograms — only for touched stages —
// and reset the span for pool reuse. Histograms are process-global, so
// assert deltas.
func TestFinishObservesStages(t *testing.T) {
	before := stageSummaries()
	tr := New(Config{})
	sp := tr.Start()
	sp.Add(StageSegWrite, 3*time.Millisecond)
	sp.Add(StageEncode, 1*time.Millisecond)
	tr.Finish("put", sp)
	after := stageSummaries()

	for st := 0; st < NumStages; st++ {
		delta := after[st].Count - before[st].Count
		switch Stage(st) {
		case StageSegWrite, StageEncode:
			if delta != 1 {
				t.Errorf("stage %s count delta = %d, want 1", Stage(st), delta)
			}
		default:
			if delta != 0 {
				t.Errorf("untouched stage %s count delta = %d, want 0", Stage(st), delta)
			}
		}
	}
	if d := after[StageSegWrite].Sum - before[StageSegWrite].Sum; d < 2900 || d > 3100 {
		t.Errorf("segwrite sum delta = %v µs, want ~3000", d)
	}

	// A reused span must come back clean.
	sp2 := tr.Start()
	for st := 0; st < NumStages; st++ {
		if d := sp2.StageDur(Stage(st)); d != 0 {
			t.Errorf("reused span has stale %s = %v", Stage(st), d)
		}
	}
	tr.Finish("noop", sp2)
}

// The JSONL export: every line one JSON object with a hex id, the op,
// a positive total, and only touched stages.
func TestSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{SampleEvery: 1, Sink: NewSink(&buf)})
	for i := 0; i < 3; i++ {
		sp := tr.Start()
		sp.Add(StageQuery, time.Duration(i+1)*time.Microsecond)
		tr.Finish("query", sp)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	idPat := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for i, line := range lines {
		var rec struct {
			ID      string           `json:"id"`
			Op      string           `json:"op"`
			TotalNS int64            `json:"total_ns"`
			Stages  map[string]int64 `json:"stages"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v (%q)", i, err, line)
		}
		if !idPat.MatchString(rec.ID) {
			t.Errorf("line %d id %q not 16 hex digits", i, rec.ID)
		}
		if rec.Op != "query" {
			t.Errorf("line %d op = %q", i, rec.Op)
		}
		if rec.TotalNS <= 0 {
			t.Errorf("line %d total_ns = %d", i, rec.TotalNS)
		}
		want := int64((i + 1) * 1000)
		if rec.Stages["query"] != want {
			t.Errorf("line %d stages.query = %d, want %d", i, rec.Stages["query"], want)
		}
		if len(rec.Stages) != 1 {
			t.Errorf("line %d has untouched stages: %v", i, rec.Stages)
		}
	}
}

// Sampling gates only the export: 1-in-N spans produce lines, every
// span still feeds histograms.
func TestSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{SampleEvery: 4, Sink: NewSink(&buf)})
	before := stageSummaries()[StagePool].Count
	const n = 16
	for i := 0; i < n; i++ {
		sp := tr.Start()
		sp.Add(StagePool, time.Microsecond)
		tr.Finish("enc", sp)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != n/4 {
		t.Fatalf("exported %d lines of %d spans at 1-in-4, want %d", got, n, n/4)
	}
	if d := stageSummaries()[StagePool].Count - before; d != n {
		t.Fatalf("pool stage histogram saw %d spans, want all %d", d, n)
	}
}

func TestEndAccumulates(t *testing.T) {
	tr := New(Config{})
	sp := tr.Start()
	for i := 0; i < 3; i++ {
		t0 := sp.Begin()
		if t0.IsZero() {
			t.Fatal("live span Begin returned zero time")
		}
		sp.End(StageSegRead, t0)
	}
	if sp.StageDur(StageSegRead) <= 0 {
		t.Fatal("End did not accumulate")
	}
	tr.Finish("get", sp)
}

// The span lifecycle — Start, a stage pair, headers, Finish with a
// sampled sink — must be allocation-free in steady state: this is the
// per-request overhead every traced hot path pays, gated at 0 allocs/op
// by scripts/bench.sh.
func BenchmarkSpanPool(b *testing.B) {
	tr := New(Config{SampleEvery: DefaultSampleEvery, Sink: NewSink(io.Discard)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start()
		t0 := sp.Begin()
		sp.End(StageEncode, t0)
		sp.Add(StageSegWrite, 1000)
		tr.Finish("put", sp)
	}
}

var sinkLine = regexp.MustCompile(`^\{"id":"[0-9a-f]{16}","op":"[a-z]+","total_ns":[0-9]+,"stages":\{("[a-z]+":[0-9]+(,"[a-z]+":[0-9]+)*)?\}\}$`)

// The hand-rolled encoder must emit exactly the documented shape.
func TestSinkLineShape(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{SampleEvery: 1, Sink: NewSink(&buf)})
	sp := tr.Start()
	sp.Add(StageLock, 7*time.Nanosecond)
	sp.Add(StageSegRead, 123456789*time.Nanosecond)
	tr.Finish("get", sp)
	line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	if !sinkLine.Match(line) {
		t.Fatalf("sink line %q does not match shape %q", line, sinkLine)
	}
	if !bytes.Contains(line, []byte(`"segread":`+strconv.Itoa(123456789))) {
		t.Fatalf("sink line %q missing segread duration", line)
	}
}
