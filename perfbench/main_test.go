package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics the program reports and
// the ones BENCHMARK.json declares the same, in name, unit and kind.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	declared := map[string]metricDef{}
	for _, m := range doc.EndToEnd {
		declared[m.Name] = metricDef{m.Name, m.Unit, false}
	}
	for _, m := range doc.PerLayer {
		declared[m.Name] = metricDef{m.Name, m.Unit, true}
	}
	if len(declared) != len(metricDefs) {
		t.Errorf("BENCHMARK.json declares %d metrics, the program reports %d", len(declared), len(metricDefs))
	}
	for _, d := range metricDefs {
		if got, ok := declared[d.name]; !ok || got != d {
			t.Errorf("metric %s: BENCHMARK.json has %+v, program reports %+v", d.name, got, d)
		}
	}
	if len(doc.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloadList))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, program has %s", i, w.Name, workloadList[i].name)
		}
	}
}
