package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"avr/internal/cache"
	"avr/internal/core"
	"avr/internal/dram"
	"avr/internal/energy"
	"avr/internal/obs"
)

// fullResult builds a Result with every field non-zero so the round-trip
// test catches any field that JSON marshalling drops or mangles.
func fullResult(avrStats bool) Result {
	r := Result{
		Design:       AVR,
		Benchmark:    "heat",
		Cycles:       123456,
		Instructions: 654321,
		IPC:          1.25,
		Energy:       energy.Breakdown{Core: 1.5, L1L2: 0.5, LLC: 0.25, DRAM: 2.5, Compressor: 0.01},
		DRAM: dram.Stats{
			Reads: 10, Writes: 20, BytesRead: 640, BytesWritten: 1280,
			RowHits: 5, RowMisses: 25, Activations: 25, Precharges: 9,
			ApproxBytes: 512, BusyCycles: 999,
		},
		CMTTrafficBytes:   4096,
		L1:                cache.Stats{Accesses: 100, Hits: 90, Misses: 10, Evictions: 5, DirtyEvictions: 2},
		L2:                cache.Stats{Accesses: 10, Hits: 6, Misses: 4, Evictions: 2, DirtyEvictions: 1},
		LLCRequests:       42,
		LLCMisses:         7,
		AMAT:              3.5,
		MPKI:              0.75,
		DgDedups:          3,
		CompressionRatio:  6.5,
		FootprintFraction: 0.25,
		OutputError:       0.001,
		Histograms: []obs.Summary{{
			Name: "dram_latency", Unit: "cycles", Count: 3, Sum: 300, Min: 50, Max: 150,
			Buckets: []obs.Bucket{{Le: 64, Count: 1}, {Le: 128, Count: 1}}, Overflow: 1,
		}},
	}
	if avrStats {
		r.AVRStats = &core.Stats{
			Requests: 1000, DemandMisses: 100,
			ApproxMiss: 10, ApproxUncompHit: 20, ApproxDBUFHit: 30, ApproxCompHit: 40,
			NonApproxHits: 50, NonApproxMisses: 60,
			EvRecompress: 1, EvLazyWB: 2, EvFetchRecompress: 3, EvUncompWB: 4,
			Compresses: 5, Decompresses: 6, Prefetches: 7, Accesses: 8,
			Outliers: 9, CompressedFromLines: 160, CompressedToLines: 20,
		}
	}
	return r
}

// TestResultJSONRoundTrip checks every Result field survives
// marshal/unmarshal — the contract behind avrsim run -json and the
// persistent disk cache.
func TestResultJSONRoundTrip(t *testing.T) {
	for _, avrStats := range []bool{true, false} {
		r := fullResult(avrStats)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("avrStats=%v: marshal: %v", avrStats, err)
		}
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("avrStats=%v: unmarshal: %v", avrStats, err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Errorf("avrStats=%v: round trip mismatch:\n got %+v\nwant %+v", avrStats, back, r)
		}
		if avrStats && back.AVRStats == nil {
			t.Error("AVRStats lost in round trip")
		}
		if !avrStats && back.AVRStats != nil {
			t.Error("nil AVRStats became non-nil")
		}
	}
}

// TestResultRoundTripNoSilentFieldLoss re-marshals the unmarshalled
// Result and compares bytes, catching asymmetric struct tags.
func TestResultRoundTripNoSilentFieldLoss(t *testing.T) {
	r := fullResult(true)
	a, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("re-marshal differs:\n%s\nvs\n%s", a, b)
	}
}
