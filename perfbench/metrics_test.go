package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program reports in step: same workloads, and the same names, units
// and better-directions for every end-to-end and per-layer metric.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload of the program", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	same := func(kind string, got []def, want []metricDef) {
		key := func(name, unit, better string) string { return name + " " + unit + " " + better }
		var g, w []string
		for _, d := range got {
			g = append(g, key(d.Name, d.Unit, d.Better))
		}
		for _, d := range want {
			w = append(w, key(d.name, d.unit, d.better))
		}
		sort.Strings(g)
		sort.Strings(w)
		if len(g) != len(w) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: BENCHMARK.json %q, program %q", kind, g[i], w[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
