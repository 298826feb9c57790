package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The metric tables in this package and BENCHMARK.json must be the same
// set, in the same order, with the same units, directions and bounds.
func TestMetricsMatchManifest(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end in BENCHMARK.json:\n %v\nin metrics.go:\n %v", m.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayerDefs) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerDefs")
		for i := range perLayerDefs {
			if i >= len(m.PerLayer) || m.PerLayer[i] != perLayerDefs[i] {
				t.Errorf("first difference at %d: metrics.go has %v", i, perLayerDefs[i])
				break
			}
		}
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	if m.RunSeconds != int(defaultOptions().seconds) {
		t.Errorf("run_seconds %d, but the default timed phase is %v s", m.RunSeconds, defaultOptions().seconds)
	}
}

func TestMetricNamesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == lower {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", d.Name, d.Bound)
		}
	}
	for _, d := range perLayerDefs {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if len(perLayerDefs) > 128 || len(endToEndDefs) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEndDefs), len(perLayerDefs))
	}
}
