package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesTheProgram pins BENCHMARK.json to the workloads
// and metrics the command runs and prints, in order, with each workload's
// open-loop rate in its why line.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		d := workloads[i]
		if w.Name != d.name || !strings.Contains(w.Why, fmt.Sprintf("open loop %g req/s", d.openRate)) {
			t.Errorf("workload %d: %q (%s), want %s at open loop %g req/s", i, w.Name, w.Why, d.name, d.openRate)
		}
	}
	for _, c := range []struct {
		name string
		json []named
		code []unitMetric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", c.name, len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s %d: %s in %s, the command prints %s in %s", c.name, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
