package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in this package
// are what the program reports. They must name the same things.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.Workloads) != len(Specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(Specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != Specs[i].Name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), Specs[i].Name)
		}
	}
	if len(doc.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(doc.EndToEnd), len(EndToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: declared %+v, program %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(PerLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(doc.PerLayer), len(PerLayer))
	}
	for i, m := range doc.PerLayer {
		d := PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) {
			t.Errorf("per-layer %d: declared %+v, program %+v", i, m, d)
		}
	}
}
