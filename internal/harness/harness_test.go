package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
)

func driverOptions() driver.Options {
	// Baseline keeps the array in memory, so the trace statistics and
	// footprint are nonzero.
	return driver.Options{Level: core.Baseline}
}

// TestFig6Table checks the reconstructed Fig. 6 behavior matrix: which
// fragments each emulated compiler handles properly.
func TestFig6Table(t *testing.T) {
	res, err := RunFig6()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		"PGI HPF 2.1":           {4, 5},
		"IBM XLHPF 1.2":         {4, 5},
		"APR XHPF 2.0":          {1, 2, 4},
		"Cray F90 2.0.1.0":      {1, 2, 4, 5, 6},
		"ZPL 1.13 (this paper)": {1, 2, 3, 4, 5, 6, 7, 8},
	}
	for compiler, frags := range want {
		marks := res.Marks(compiler)
		if marks == nil {
			t.Fatalf("compiler %q missing from table", compiler)
		}
		wantSet := map[int]bool{}
		for _, f := range frags {
			wantSet[f] = true
		}
		for f := 1; f <= 8; f++ {
			if marks[f] != wantSet[f] {
				t.Errorf("%s fragment (%d): proper=%v, want %v",
					compiler, f, marks[f], wantSet[f])
			}
		}
	}
}

// TestFig7Shape checks the contraction-count shape of Fig. 7: every
// compiler temp eliminated, EP fully contracted, more than half of the
// arrays eliminated in every benchmark except SP.
func TestFig7Shape(t *testing.T) {
	rows, err := RunFig7(&Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.After >= r.Before {
			t.Errorf("%s: no contraction (%d -> %d)", r.Benchmark, r.Before, r.After)
		}
		switch r.Benchmark {
		case "ep":
			if r.After != 0 {
				t.Errorf("ep: %d arrays survive, want 0", r.After)
			}
		case "frac":
			if r.After > 2 {
				t.Errorf("frac: %d arrays survive, want <=2", r.After)
			}
		default:
			// Every benchmark eliminates a substantial share
			// (Fig. 7: 44.9% to 100%).
			if float64(r.After) > 0.6*float64(r.Before) {
				t.Errorf("%s: only %d of %d contracted", r.Benchmark, r.Before-r.After, r.Before)
			}
		}
	}
	// Fibro keeps the largest fraction of its arrays (paper: -44.9%,
	// the smallest reduction of the six).
	frac := func(r Fig7Row) float64 { return float64(r.After) / float64(r.Before) }
	var fibro Fig7Row
	for _, r := range rows {
		if r.Benchmark == "fibro" {
			fibro = r
		}
	}
	for _, r := range rows {
		if r.Benchmark != "fibro" && frac(r) > frac(fibro)+0.01 {
			t.Errorf("%s keeps a larger fraction (%.2f) than fibro (%.2f)",
				r.Benchmark, frac(r), frac(fibro))
		}
	}
}

// TestFig8Prediction checks that the analytic C value predicts the
// measured volume growth (the paper's validation of §5.3).
func TestFig8Prediction(t *testing.T) {
	rows, err := RunFig8(&Env{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MaxWith < r.MaxWithout {
			t.Errorf("%s: contraction shrank the maximum problem size (%d -> %d)",
				r.Benchmark, r.MaxWithout, r.MaxWith)
		}
		if r.Benchmark == "ep" {
			// EP contracts everything: its optimized footprint is
			// constant, so the search hits the cap.
			if r.MaxWith < 1<<20 {
				t.Errorf("ep: max problem size %d, want unbounded (cap)", r.MaxWith)
			}
			continue
		}
		// C (a per-dimension prediction for rank-1, volume-ish for
		// rank 2) should roughly track the measured volume change.
		if r.C > 10 && r.VolPct < r.C*0.4 {
			t.Errorf("%s: C=%.1f%% predicts growth, measured volume %+.1f%%",
				r.Benchmark, r.C, r.VolPct)
		}
	}
}

// perfStudy runs a reduced ladder study once for the shape tests.
var perfCache *PerfResult

func perf(t *testing.T) *PerfResult {
	t.Helper()
	if perfCache != nil {
		return perfCache
	}
	res, err := RunPerfStudy(&Env{Size: 0.5}, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	perfCache = res
	return res
}

// TestPerfC2Dominates checks the predominant characteristic of
// Figs. 9–11: c2 meets or beats baseline, f1, and c1 everywhere, and
// delivers a substantial improvement on the temp-heavy benchmarks.
func TestPerfC2Dominates(t *testing.T) {
	res := perf(t)
	machines := []string{"Cray T3E", "IBM SP-2", "Intel Paragon"}
	for _, pt := range res.Points {
		if pt.Level != core.C2 {
			continue
		}
		f1 := res.Point(pt.Benchmark, pt.Procs, core.F1)
		c1 := res.Point(pt.Benchmark, pt.Procs, core.C1)
		for _, m := range machines {
			if pt.Improvement[m] < -1 {
				t.Errorf("%s p=%d %s: c2 slower than baseline (%.1f%%)",
					pt.Benchmark, pt.Procs, m, pt.Improvement[m])
			}
			if c1 != nil && pt.Improvement[m] < c1.Improvement[m]-2 {
				t.Errorf("%s p=%d %s: c2 (%.1f%%) below c1 (%.1f%%)",
					pt.Benchmark, pt.Procs, m, pt.Improvement[m], c1.Improvement[m])
			}
			if f1 != nil && pt.Improvement[m] < f1.Improvement[m]-2 {
				t.Errorf("%s p=%d %s: c2 (%.1f%%) below f1 (%.1f%%)",
					pt.Benchmark, pt.Procs, m, pt.Improvement[m], f1.Improvement[m])
			}
		}
	}
	// EP, whose arrays all contract, must see a large c2 win.
	pt := res.Point("ep", 1, core.C2)
	if pt == nil || pt.Improvement["Cray T3E"] < 20 {
		t.Errorf("ep c2 improvement on T3E = %v, want > 20%%", pt)
	}
}

// TestPerfHeadline checks §1's claim: improvements are "typically
// greater than 20%" at c2.
func TestPerfHeadline(t *testing.T) {
	res := perf(t)
	median, max := res.Headline()
	if median < 10 {
		t.Errorf("median c2 improvement %.1f%%, want >= 10%%", median)
	}
	if max < 40 {
		t.Errorf("max c2 improvement %.1f%%, want >= 40%%", max)
	}
	t.Logf("headline: median %.1f%%, max %.1f%%", median, max)
}

// TestSec55FavorFusionWins checks the §5.5 conclusion: favoring
// communication optimization over fusion slows the temp-heavy codes
// and roughly breaks even on Fibro.
func TestSec55FavorFusionWins(t *testing.T) {
	rows, err := RunSec55(&Env{Size: 0.5}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for m, s := range r.Slowdown {
			if s < -10 {
				t.Errorf("%s on %s: favor-comm is %.1f%% FASTER; fusion should win",
					r.Benchmark, m, -s)
			}
		}
		if r.Benchmark == "simple" || r.Benchmark == "tomcatv" {
			if r.LostContr <= 0 {
				t.Errorf("%s: favor-comm lost no contractions", r.Benchmark)
			}
		}
	}
}

// TestLatencySensitivity probes the conclusion's conjecture: the
// favor-comm penalty must not shrink as message startup cost falls
// (cheap synchronization leaves nothing for pipelining to hide, so
// sacrificing contraction buys ever less).
func TestLatencySensitivity(t *testing.T) {
	pts, err := RunLatencySensitivity(&Env{}, "tomcatv", 16, []float64{4800, 600, 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Slowdown < pts[i-1].Slowdown-1 {
			t.Errorf("penalty shrank as alpha fell: %v", pts)
		}
	}
	if pts[len(pts)-1].Slowdown < 10 {
		t.Errorf("penalty at low alpha only %.1f%%", pts[len(pts)-1].Slowdown)
	}
}

// TestBarsRender sanity-checks the bar-chart rendering of Figs. 9–11.
func TestBarsRender(t *testing.T) {
	res := perf(t)
	out := res.FormatMachineBars("Cray T3E", 16, 30)
	if !strings.Contains(out, "#") || !strings.Contains(out, "|") {
		t.Errorf("no bars rendered:\n%s", out)
	}
	if !strings.Contains(out, "tomcatv") || !strings.Contains(out, "c2+f3") {
		t.Errorf("bars missing groups:\n%s", out)
	}
}

// TestFormatters sanity-checks the ladder table renderer on the
// reduced study. Every other renderer (and this one at full size,
// under -full) is pinned byte for byte by TestResultsGolden.
func TestFormatters(t *testing.T) {
	res := perf(t)
	if out := res.FormatMachine("IBM SP-2", "Figure 10"); !strings.Contains(out, "c2+f3") {
		t.Errorf("fig10 format:\n%s", out)
	}
}

// TestMeasureReportsAllMachines: one Measure call prices all three
// models and reports trace statistics.
func TestMeasureReportsAllMachines(t *testing.T) {
	b := "program m; region R = [1..32]; var A : [R] double; var s : double; proc main() begin [R] A := index1 * 1.0; s := +<< [R] A; writeln(s); end;"
	meas, err := Measure(b, driverOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Cray T3E", "IBM SP-2", "Intel Paragon"} {
		if meas.Cycles[name] <= 0 {
			t.Errorf("%s: no cycles", name)
		}
	}
	if meas.Accesses == 0 || meas.Flops == 0 {
		t.Errorf("trace stats missing: %+v", meas)
	}
	if meas.MemoryBytes != 32*8 {
		t.Errorf("memory = %d, want 256", meas.MemoryBytes)
	}
}

// TestAuditRemarksClean is the acceptance gate for the remarks engine:
// across the full Fig. 7/8 benchmark suite at every strategy level,
// every fusible-candidate pair left unfused and every uncontracted
// candidate or temporary must carry exactly one machine-readable
// explanation, and dependence-test failures must name their blocking
// edge.
func TestAuditRemarksClean(t *testing.T) {
	rows, err := AuditRemarks(&Env{}, core.AllLevels())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, p := range r.Problems {
			t.Errorf("%s at %s: %s", r.Benchmark, r.Level, p)
		}
		if r.Remarks == 0 {
			t.Errorf("%s at %s: no remarks recorded", r.Benchmark, r.Level)
		}
	}
	if n := AuditProblems(rows); n > 0 {
		t.Errorf("audit: %d problem(s)", n)
	}
}
