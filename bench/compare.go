package main

import (
	"fmt"
	"os"
	"slices"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	vOK         verdict = "ok"
	vRegressed  verdict = "regressed"
	vUnresolved verdict = "unresolved" // run-to-run spread wider than the bound
	vInfo       verdict = "-"          // reported, not gated
)

// row is one line of the comparison.
type row struct {
	workload, metric string
	old, new         float64 // medians over each side's runs
	worse            float64 // relative worsening (negative = better)
	spread           float64 // the wider of the two sides' spreads
	verdict          verdict
}

// judge compares one metric's values over the old runs and the new
// runs. A count must be identical. A gated metric regresses when its
// median worsens by more than the bound; when the spread between runs
// of either side is wider than the bound the pair is unresolved, not
// unchanged, unless every new run beats every old run.
func judge(m Metric, old, new []float64) row {
	r := row{metric: m.Name, old: median(old), new: median(new), verdict: vInfo}
	if r.old != 0 {
		r.worse = (r.new - r.old) / r.old
		if m.Better == "higher" {
			r.worse = -r.worse
		}
	}
	r.spread = spreadOf(old)
	if s := spreadOf(new); s > r.spread {
		r.spread = s
	}
	switch {
	case m.exact():
		r.verdict = vOK
		if !allEqual(old, new) {
			r.verdict = vRegressed
		}
	case m.Name == "fail_ratio":
		r.verdict = vOK
		if r.new > r.old {
			r.verdict = vRegressed
		}
	case m.Bound > 0 && r.old == 0 && r.new == 0:
		r.verdict = vInfo // the workload does not report this row
	case m.Bound > 0:
		switch {
		case r.worse > m.Bound:
			r.verdict = vRegressed
		case r.spread > m.Bound && !allBetter(m, old, new):
			r.verdict = vUnresolved
		default:
			r.verdict = vOK
		}
	}
	return r
}

// spreadOf is the quartile spread with four or more runs, the full
// range over the median with two or three, and 0 with one.
func spreadOf(xs []float64) float64 {
	if len(xs) >= 4 {
		return spread(xs)
	}
	if len(xs) < 2 {
		return 0
	}
	mid := median(xs)
	if mid == 0 {
		return 0
	}
	return (slices.Max(xs) - slices.Min(xs)) / mid
}

func allEqual(a, b []float64) bool {
	for _, x := range append(append([]float64(nil), a...), b...) {
		if x != a[0] {
			return false
		}
	}
	return true
}

// allBetter reports whether every new run reads better than every old.
func allBetter(m Metric, old, new []float64) bool {
	for _, o := range old {
		for _, n := range new {
			if (m.Better == "lower" && n >= o) || (m.Better == "higher" && n <= o) {
				return false
			}
		}
	}
	return true
}

// compareRuns judges every metric of every workload both sides ran.
func compareRuns(old, new []*Result) []row {
	collect := func(rs []*Result) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range rs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Values {
				out[r.Workload][name] = append(out[r.Workload][name], v)
			}
		}
		return out
	}
	a, b := collect(old), collect(new)
	var rows []row
	for _, w := range workloads {
		if a[w.name] == nil || b[w.name] == nil {
			continue
		}
		for _, set := range [][]Metric{endToEnd, named, perLayer} {
			for _, m := range set {
				ov, nv := a[w.name][m.Name], b[w.name][m.Name]
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				r := judge(m, ov, nv)
				r.workload = w.name
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// compareFiles prints one row per (workload, metric) and returns the
// exit code: 1 when anything regressed, 2 when a file cannot be read.
func compareFiles(oldPath, newPath string) int {
	old, err := readRuns(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	nw, err := readRuns(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	rows := compareRuns(old.Runs, nw.Runs)
	bad := 0
	fmt.Printf("%-12s %-30s %14s %14s %8s %8s  %s\n", "workload", "metric", "old", "new", "worse", "spread", "verdict")
	for _, r := range rows {
		if r.verdict == vInfo && r.old == 0 && r.new == 0 {
			continue // a row this workload does not report
		}
		fmt.Printf("%-12s %-30s %14.6g %14.6g %+7.1f%% %7.1f%%  %s\n",
			r.workload, r.metric, r.old, r.new, 100*r.worse, 100*r.spread, r.verdict)
		if r.verdict == vRegressed {
			bad++
		}
	}
	fmt.Printf("\n%d rows, %d regressed\n", len(rows), bad)
	if bad > 0 {
		return 1
	}
	return 0
}
