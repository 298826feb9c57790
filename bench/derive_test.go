package main

import (
	"math"
	"testing"
	"time"
)

func sumRows(rows []row) float64 {
	s := 0.0
	for _, r := range rows {
		s += r.us
	}
	return s
}

// The ladder's rows plus "unattributed" must equal the top rung, whatever
// the rungs read — including a missing rung and a lower rung that read
// slower than the one above it.
func TestBudgetCloses(t *testing.T) {
	for _, rungs := range [][]row{
		{{"cluster", 900}, {"server", 300}, {"store", 100}, {"codec", 66.7}},
		{{"cluster", 0}, {"server", 733.6}, {"store", 305.6}, {"codec", 0}},
		{{"cluster", 500}, {"server", 510}, {"store", 100}, {"codec", 20}},
	} {
		rows := budget(rungs)
		if last := rows[len(rows)-1]; last.name != "unattributed" {
			t.Fatalf("last row is %q, want the explicit unattributed row", last.name)
		}
		top := 0.0
		for _, r := range rungs {
			if r.us > 0 {
				top = r.us
				break
			}
		}
		if got := sumRows(rows); math.Abs(got-top) > 1e-9 {
			t.Errorf("rows of %v sum to %v, want the top rung %v", rungs, got, top)
		}
	}
	if budget([]row{{"a", 0}}) != nil {
		t.Errorf("a ladder with no spans has no budget")
	}
}

// The avrd rung split by reported stage closes too, and a stage a
// response did not report counts as 0 for that op.
func TestStageBudgetCloses(t *testing.T) {
	rec := newRecorder()
	t0 := rec.epoch
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	for i, total := range []int{300, 320, 310, 1000} {
		op := rec.op()
		rec.add(op, rungAvrd, "get", at(0), at(total), 16384, 65536)
		rec.addStage(op, rungAvrd, "decode", at(0), 100*time.Microsecond)
		if i%2 == 0 {
			rec.addStage(op, rungAvrd, "segread", at(0), 40*time.Microsecond)
		}
	}
	ix := indexSpans(rec.all())
	rows := stageBudget(ix, rungAvrd, []string{"get"}, serverStages)
	want := map[string]float64{"decode": 100, "segread": 20, "unattributed": 315 - 120}
	if len(rows) != len(want) {
		t.Fatalf("rows %v, want %v", rows, want)
	}
	for _, r := range rows {
		if math.Abs(r.us-want[r.name]) > 1e-9 {
			t.Errorf("row %s = %v us, want %v", r.name, r.us, want[r.name])
		}
	}
	if got := sumRows(rows); math.Abs(got-315) > 1e-9 {
		t.Errorf("stage rows sum to %v, want the rung's p50 315", got)
	}
	if got := median(ix.unstaged(rungAvrd, []string{"get"})); math.Abs(got-195e3) > 1e-6 {
		t.Errorf("unstaged median = %v ns, want 195000", got)
	}
}

// Self times come from differencing adjacent rungs.
func TestDeriveLadderDifferences(t *testing.T) {
	rec := newRecorder()
	t0 := rec.epoch
	add := func(rung, name string, us int) {
		rec.add(rec.op(), rung, name, t0, t0.Add(time.Duration(us)*time.Microsecond), 1000, 500)
	}
	add(rungRouter, "get", 900)
	add(rungAvrd, "get", 300)
	add(rungStore, "get", 100)
	add(rungCodec, "get", 60)
	add(rungCodec, "put", 80)
	m := deriveLadder(rec.all())
	for name, want := range map[string]float64{
		"cluster.get_hop_us":            600,
		"server.get_us_p50":             300,
		"server.get_self_us":            200,
		"store.get_ns_per_value":        100,
		"store.get_self_ns_per_value":   40,
		"codec.decode_ns_per_value":     60,
		"codec.encode_ns_per_value":     80,
		"codec.encoded_bytes_per_value": 0.5,
		"cluster.put_hop_us":            0,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}
