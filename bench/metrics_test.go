package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is a projection of the tables
// in metrics.go and main.go; `-manifest` prints it.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var have, want interface{}
	if err := json.Unmarshal(data, &have); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &want); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(have)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Errorf("BENCHMARK.json is out of step with the metric tables; regenerate it with -manifest\n have %s\n want %s", a, b)
	}
}

// The contract's limits on names, units and counts.
func TestMetricTablesObeyTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, set := range [][]Metric{endToEnd, named, perLayer} {
		for _, m := range set {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("metric %q with unit %q is outside the contract's alphabet", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("metric %q is listed twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q has direction %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("metric %q has bound %v, outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	var setup bool
	for _, m := range endToEnd {
		if m.Bound == 0 {
			t.Errorf("end-to-end metric %q has no bound", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("the end-to-end table must contain setup_s in s, lower is better")
	}
	if len(perLayer) != 59 {
		t.Errorf("%d per-layer metrics, the issue names 59", len(perLayer))
	}
	if n := len(tracedMetrics()); n > 128 {
		t.Errorf("%d traced metrics, the contract allows 128", n)
	}
	if n := len(workloads); n != 7 {
		t.Errorf("%d workloads, want 7", n)
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a reason of %d characters (limit 200)", w.name, len(w.why))
		}
		if !seen[w.main] {
			t.Errorf("workload %q names an unknown main metric %q", w.name, w.main)
		}
	}
}
