package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json registers the benchmark with the driver; the tables in
// metrics.go and workload.go are what the program prints. They must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
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
	var reg struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Workloads) != len(workloads) {
		t.Fatalf("%d workloads registered, %d implemented", len(reg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if reg.Workloads[i].Name != w.name || reg.Workloads[i].Why != w.why {
			t.Errorf("workload %d: registered %+v, implemented {%s %s}", i, reg.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics registered, %d in the table", kind, len(got), len(want))
		}
		nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: registered %s/%s/%s, table %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s (%s): outside the contract's name or unit alphabet", kind, m.Name, m.Unit)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound registered %v, table %v (must be in (0, 0.25])", kind, m.Name, g.Bound, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", reg.EndToEnd, contractMetrics, true)
	check("per_layer", reg.PerLayer, layerMetrics, false)
	if len(reg.Paths) != 1 || reg.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", reg.Paths)
	}
}
