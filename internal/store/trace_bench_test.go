package store

import (
	"io"
	"testing"
	"time"

	"avr/internal/trace"
)

// Traced-path benchmarks: the store hot paths with a live span per
// operation, a live tracer at the default export sampling, and a sink.
// scripts/bench.sh gates these at 0 allocs/op alongside their untraced
// twins — the tracing tentpole's whole premise is that attribution is
// free enough to leave on.

func benchTracer() *trace.Tracer {
	return trace.New(trace.Config{
		SampleEvery: trace.DefaultSampleEvery,
		Sink:        trace.NewSink(io.Discard),
	})
}

func BenchmarkTracedPut32(b *testing.B) {
	s := benchStore(b, Config{})
	tr := benchTracer()
	vals := benchVals32(b, "heat", 4*BlockValues)
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start()
		if _, err := s.Put32Traced("bench", vals, sp); err != nil {
			b.Fatal(err)
		}
		tr.Finish("put", sp)
	}
}

func BenchmarkTracedGet32(b *testing.B) {
	s := benchStore(b, Config{})
	tr := benchTracer()
	vals := benchVals32(b, "heat", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, 0, len(vals))
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start()
		out, _, err := s.Get32IntoCached(dst, "bench", sp)
		if err != nil {
			b.Fatal(err)
		}
		tr.Finish("get", sp)
		dst = out[:0]
	}
}

func BenchmarkTracedQueryAggregate(b *testing.B) {
	s := benchStore(b, Config{})
	tr := benchTracer()
	vals := benchVals32(b, "heat", 4*BlockValues)
	if _, err := s.Put32("bench", vals); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start()
		if _, err := s.QueryAggregateTraced("bench", sp); err != nil {
			b.Fatal(err)
		}
		tr.Finish("query", sp)
	}
}

// The traced paths must record every stage they claim to: one span per
// operation with the expected stage set populated.
func TestTracedPathsPopulateStages(t *testing.T) {
	s := openTest(t, Config{})
	tr := trace.New(trace.Config{})
	vals := genF32(t, "heat", 2*BlockValues, 42)

	sp := tr.Start()
	if _, err := s.Put32Traced("k", vals, sp); err != nil {
		t.Fatal(err)
	}
	for _, st := range []trace.Stage{trace.StageEncode, trace.StageSegWrite} {
		if sp.StageDur(st) <= 0 {
			t.Errorf("put span missing stage %s", st)
		}
	}
	if sp.StageDur(trace.StageSegRead) != 0 || sp.StageDur(trace.StageQuery) != 0 {
		t.Error("put span touched read/query stages")
	}
	tr.Finish("put", sp)

	sp = tr.Start()
	if _, _, err := s.Get32IntoCached(nil, "k", sp); err != nil {
		t.Fatal(err)
	}
	for _, st := range []trace.Stage{trace.StageSegRead, trace.StageDecode} {
		if sp.StageDur(st) <= 0 {
			t.Errorf("get span missing stage %s", st)
		}
	}
	if sp.StageDur(trace.StageEncode) != 0 || sp.StageDur(trace.StageSegWrite) != 0 {
		t.Error("get span touched write stages")
	}
	tr.Finish("get", sp)

	// A query reads its frames like a get (pread + CRC under segread) and
	// walks them under its own stage; nothing is decoded. No interval is
	// counted under two stages, so the stages sum to at most the wall time.
	t0 := time.Now()
	sp = tr.Start()
	if _, err := s.QueryAggregateTraced("k", sp); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	for _, st := range []trace.Stage{trace.StageSegRead, trace.StageQuery} {
		if sp.StageDur(st) <= 0 {
			t.Errorf("query span missing stage %s", st)
		}
	}
	if sp.StageDur(trace.StageDecode) != 0 {
		t.Error("query span charged time to decode: a query decodes nothing")
	}
	var sum time.Duration
	for st := 0; st < trace.NumStages; st++ {
		sum += sp.StageDur(trace.Stage(st))
	}
	if sum > wall {
		t.Errorf("query stages sum to %v, more than the %v the call took", sum, wall)
	}
	tr.Finish("query", sp)

	// The untraced entry points still work and are what the traced ones
	// delegate from — spot-check one round trip.
	if _, err := s.Put32("k2", vals); err != nil {
		t.Fatal(err)
	}
	if _, err := get32(s, "k2"); err != nil {
		t.Fatal(err)
	}
}
