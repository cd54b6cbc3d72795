package harness

import (
	"fmt"
	"strings"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/programs"
)

// Sec55Row is one benchmark's slowdown when communication optimization
// is favored over fusion (§5.5), per machine model.
type Sec55Row struct {
	Benchmark string
	Slowdown  map[string]float64 // machine -> % slowdown of favor-comm vs favor-fusion
	LostContr int                // contraction opportunities lost to favor-comm
}

// Sec55Benchmarks are the four applications §5.5 reports (EP and Frac
// "do not slow down because they are small codes that do not benefit
// from communication optimization").
var Sec55Benchmarks = []string{"simple", "tomcatv", "sp", "fibro"}

// RunSec55 measures the favor-fusion versus favor-comm strategies at
// c2+f3 with the given processor count. Each benchmark's pair of
// strategy measurements is independent and runs on the worker pool.
func RunSec55(e *Env, procs int) ([]Sec55Row, error) {
	return parallelMap(e, Sec55Benchmarks, func(name string) (Sec55Row, error) {
		b, _ := programs.ByName(name)
		measure := func(strategy comm.Strategy) (*Measurement, error) {
			co := comm.DefaultOptions(procs)
			co.Strategy = strategy
			m, err := Measure(b.Source, driver.Options{Level: core.C2F3, Configs: e.configs(b), Comm: &co}, procs)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, strategy, err)
			}
			return m, nil
		}
		fuse, err := measure(comm.FavorFusion)
		if err != nil {
			return Sec55Row{}, err
		}
		cm, err := measure(comm.FavorComm)
		if err != nil {
			return Sec55Row{}, err
		}

		row := Sec55Row{
			Benchmark: name,
			Slowdown:  map[string]float64{},
			// The contraction opportunities favor-comm disables.
			LostContr: len(fuse.Compilation.Plan.Contracted) - len(cm.Compilation.Plan.Contracted),
		}
		for _, m := range machine.Models() {
			if base := fuse.Cycles[m.Name]; base > 0 {
				row.Slowdown[m.Name] = (cm.Cycles[m.Name]/base - 1) * 100
			}
		}
		return row, nil
	})
}

// FormatSec55 renders the study.
func FormatSec55(rows []Sec55Row, procs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.5: slowdown when favoring communication optimization over\n")
	fmt.Fprintf(&b, "fusion for contraction (c2+f3, p=%d)\n\n", procs)
	models := machine.Models()
	fmt.Fprintf(&b, "%-10s", "app")
	for _, m := range models {
		fmt.Fprintf(&b, " %14s", m.Name)
	}
	fmt.Fprintf(&b, " %8s\n", "lost")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Benchmark)
		for _, m := range models {
			fmt.Fprintf(&b, " %13.1f%%", r.Slowdown[m.Name])
		}
		fmt.Fprintf(&b, " %8d\n", r.LostContr)
	}
	b.WriteString("\n(positive = favor-comm is slower; 'lost' = contractions disabled)\n")
	return b.String()
}
