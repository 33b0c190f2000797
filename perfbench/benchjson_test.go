package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics the program reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		what string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", c.what, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					c.what, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}
