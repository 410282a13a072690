package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesCode holds BENCHMARK.json at the repository root to
// what the program reports: the same workloads, metrics, units,
// directions and bounds, in the same order.
func TestManifestMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	names := workloadNames()
	if len(m.Workloads) != len(names) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(names))
	}
	for i, w := range m.Workloads {
		if w.Name != names[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest %q (why: %d chars), program %q", i, w.Name, len(w.Why), names[i])
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s %s: bound %v in the manifest, %v in the program", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}
