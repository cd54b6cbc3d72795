package main

import "testing"

func TestJudge(t *testing.T) {
	lower := Metric{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	count := Metric{Name: "core.nests", Unit: "count", Better: "lower"}
	layer := Metric{Name: "vm.run_ms", Unit: "ms", Better: "lower"}
	fail := Metric{Name: "fail_ratio", Unit: "ratio", Better: "lower"}
	for _, c := range []struct {
		name     string
		m        Metric
		old, new []float64
		want     verdict
	}{
		{"within the bound", lower, []float64{100}, []float64{109}, vOK},
		{"worse than the bound", lower, []float64{100}, []float64{111}, vRegressed},
		{"better", lower, []float64{100}, []float64{50}, vOK},
		{"higher is better, dropped", higher, []float64{100}, []float64{85}, vRegressed},
		{"higher is better, rose", higher, []float64{100}, []float64{130}, vOK},
		{"median decides, not one slow run", lower, []float64{100, 101, 99, 100}, []float64{100, 140, 100, 101}, vUnresolved},
		{"tight runs, small loss", lower, []float64{100, 101, 99, 100}, []float64{104, 105, 103, 104}, vOK},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 140}, []float64{85, 100, 125, 140}, vUnresolved},
		{"wide spread but every new run wins", lower, []float64{80, 100, 120, 140}, []float64{40, 50, 60, 70}, vOK},
		{"count repeats", count, []float64{454, 454}, []float64{454}, vOK},
		{"count moved", count, []float64{454, 454}, []float64{453}, vRegressed},
		{"count differs within one side", count, []float64{454, 455}, []float64{454}, vRegressed},
		{"ungated layer time", layer, []float64{10}, []float64{20}, vInfo},
		{"any rise in failures", fail, []float64{0}, []float64{0.001}, vRegressed},
		{"no failures", fail, []float64{0}, []float64{0}, vOK},
		{"row the workload does not report", lower, []float64{0}, []float64{0}, vInfo},
	} {
		if got := judge(c.m, c.old, c.new).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	r := judge(higher, []float64{100}, []float64{80})
	if !near(r.worse, 0.2) {
		t.Errorf("a drop from 100 to 80 of a higher-is-better metric is 20%% worse, got %v", r.worse)
	}
}

func TestCompareRuns(t *testing.T) {
	run := func(w string, vals map[string]float64) *Result { return &Result{Workload: w, Values: vals} }
	old := []*Result{
		run("compile", map[string]float64{"op_ms_p50": 5, "core.nests": 454, "fail_ratio": 0}),
		run("run-go", map[string]float64{"op_ms_p50": 50}),
	}
	nw := []*Result{
		run("compile", map[string]float64{"op_ms_p50": 6.5, "core.nests": 454, "fail_ratio": 0}),
		run("lazy-small", map[string]float64{"op_ms_p50": 1}),
	}
	rows := compareRuns(old, nw)
	got := map[string]verdict{}
	for _, r := range rows {
		got[r.workload+"/"+r.metric] = r.verdict
	}
	want := map[string]verdict{"compile/op_ms_p50": vRegressed, "compile/core.nests": vOK, "compile/fail_ratio": vOK}
	if len(got) != len(want) {
		t.Errorf("rows %v: only workloads and metrics both sides have are compared", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %q, want %q", k, got[k], v)
		}
	}
}
