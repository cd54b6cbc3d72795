package harness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
)

// PerfPoint is one (benchmark, processors, level) measurement: percent
// improvement over baseline on each machine model.
type PerfPoint struct {
	Benchmark   string
	Procs       int
	Level       core.Level
	Improvement map[string]float64 // machine -> %
	Cycles      map[string]float64
}

// PerfResult holds the whole ladder study.
type PerfResult struct {
	Points []PerfPoint
}

// RunPerfStudy executes the §5.4 transformation ladder for every
// benchmark at each processor count, pricing each run on all three
// machine models in a single execution.
func RunPerfStudy(e *Env, procs []int) (*PerfResult, error) {
	// The (benchmark, level, procs) measurements are independent;
	// improvements are computed afterwards from each (benchmark, procs)
	// group's baseline point, so the result does not depend on the
	// order the pool ran them in.
	cells := grid(core.Levels(), procs...)
	meas, err := eachCell(e, cells, func(c cell) (*Measurement, error) {
		return Measure(c.b.Source, c.options(e.configs(c.b)), c.procs)
	})
	if err != nil {
		return nil, err
	}

	cycles := map[cell]map[string]float64{}
	for i, c := range cells {
		cycles[c] = meas[i].Cycles
	}
	res := &PerfResult{}
	for i, c := range cells {
		baseline := cycles[cell{c.b, core.Baseline, c.procs}]
		pt := PerfPoint{
			Benchmark:   c.b.Name,
			Procs:       c.procs,
			Level:       c.lvl,
			Improvement: map[string]float64{},
			Cycles:      meas[i].Cycles,
		}
		for m, cyc := range meas[i].Cycles {
			pt.Improvement[m] = Improvement(baseline[m], cyc)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Point returns the measurement for (benchmark, procs, level), or nil.
// A study measures the full product of its axes, so every combination
// of values from axes has a point.
func (r *PerfResult) Point(bench string, procs int, lvl core.Level) *PerfPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Benchmark == bench && p.Procs == procs && p.Level == lvl {
			return p
		}
	}
	return nil
}

// FormatMachine renders the Figure 9/10/11 table for one machine:
// benchmarks × processor counts, one column per transformation.
func (r *PerfResult) FormatMachine(mach string, figure string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %% improvement over baseline on the %s model\n", figure, mach)
	b.WriteString("(positive = speedup from the transformation; §5.4 ladder)\n\n")

	benches, procs, levels := r.axes()
	for _, bench := range benches {
		fmt.Fprintf(&b, "%s\n", bench)
		fmt.Fprintf(&b, "  %4s", "p")
		for _, lvl := range levels {
			fmt.Fprintf(&b, " %9s", lvl)
		}
		b.WriteString("\n")
		for _, p := range procs {
			fmt.Fprintf(&b, "  %4d", p)
			for _, lvl := range levels {
				fmt.Fprintf(&b, " %8.1f%%", r.Point(bench, p, lvl).Improvement[mach])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// axes lists the study's benchmarks, processor counts and
// non-baseline levels, each in first-measured order.
func (r *PerfResult) axes() (benches []string, procs []int, levels []core.Level) {
	for _, p := range r.Points {
		if !slices.Contains(benches, p.Benchmark) {
			benches = append(benches, p.Benchmark)
		}
		if !slices.Contains(procs, p.Procs) {
			procs = append(procs, p.Procs)
		}
		if p.Level != core.Baseline && !slices.Contains(levels, p.Level) {
			levels = append(levels, p.Level)
		}
	}
	return benches, procs, levels
}

// Headline summarizes the paper's §1 claim over the study: the median
// and maximum c2 improvement across benchmarks, machines, and p.
func (r *PerfResult) Headline() (median, max float64) {
	var vals []float64
	for _, p := range r.Points {
		if p.Level != core.C2 {
			continue
		}
		for _, m := range machine.Models() {
			vals = append(vals, p.Improvement[m.Name])
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	slices.Sort(vals)
	return vals[len(vals)/2], vals[len(vals)-1]
}

// FormatHeadline renders Headline beside the paper's wording.
func (r *PerfResult) FormatHeadline() string {
	median, max := r.Headline()
	return fmt.Sprintf(
		"Headline (§1): c2 improvement over baseline across benchmarks,\nmachines and processor counts: median %.1f%%, maximum %.1f%%\n(paper: \"typically greater than 20%% and sometimes up to 400%%\")\n",
		median, max)
}
