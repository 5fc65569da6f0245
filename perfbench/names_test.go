package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the
// characters the result format allows, and that no name repeats.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]MetricDef{endToEndMetrics, tailMetrics, perLayerMetrics} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, nameRE)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better is %q", d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %s declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q does not match %s", name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) || len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, perfbench reports %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	for i, m := range b.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] is %+v, perfbench reports %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] is %+v, perfbench reports %+v", i, m, d)
		}
	}
}
