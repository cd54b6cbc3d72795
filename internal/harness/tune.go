package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/programs"
	"repro/internal/tune"
)

// TuneRow is one benchmark's heuristic-vs-search comparison: how close
// the greedy c2+f4 ladder rung comes to the best plan the search can
// find (and, where exhaustive enumeration completed, to the proven
// optimum under the cost model).
type TuneRow struct {
	Benchmark      string  `json:"benchmark"`
	Model          string  `json:"model"`
	HeuristicScore float64 `json:"heuristic_score"`
	TunedScore     float64 `json:"tuned_score"`
	// GapPct is the heuristic's excess over the tuned plan, in percent
	// of the tuned score; 0 means the greedy ladder found the searched
	// plan exactly.
	GapPct float64 `json:"gap_pct"`
	// Proven is true when every block was enumerated exhaustively, so
	// the tuned score is the true optimum under the model.
	Proven bool   `json:"proven"`
	Method string `json:"method"` // exhaustive | beam | mixed
	States int    `json:"states"` // total search states visited
	Blocks int    `json:"blocks"`
}

// RunTune tunes every benchmark against the strongest ladder rung
// (c2+f4) under the analytic T3E cycle model and reports how close the
// greedy heuristic comes to the searched (and, where proven, optimal)
// plan.
func RunTune(e *Env) ([]TuneRow, error) {
	return parallelMap(e, programs.All(), func(b programs.Benchmark) (TuneRow, error) {
		model := tune.CycleModel{M: machine.T3E(), Procs: 1}
		res, err := tune.Tune(context.Background(), b.Source, tune.Options{
			Level: core.C2F4,
			Model: model,
		})
		if err != nil {
			return TuneRow{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		row := TuneRow{
			Benchmark:      b.Name,
			Model:          res.Model,
			HeuristicScore: res.HeuristicScore,
			TunedScore:     res.TunedScore,
			Proven:         res.Proven,
			Blocks:         len(res.Blocks),
		}
		if res.TunedScore > 0 {
			row.GapPct = (res.HeuristicScore - res.TunedScore) / res.TunedScore * 100
		}
		exhaustive, beam := 0, 0
		for _, bs := range res.Blocks {
			row.States += bs.States
			if bs.Method == "exhaustive" {
				exhaustive++
			} else {
				beam++
			}
		}
		switch {
		case beam == 0:
			row.Method = "exhaustive"
		case exhaustive == 0:
			row.Method = "beam"
		default:
			row.Method = "mixed"
		}
		return row, nil
	})
}

// FormatTune renders the heuristic-vs-optimal table.
func FormatTune(rows []TuneRow) string {
	var b strings.Builder
	b.WriteString("Plan search: greedy ladder (c2+f4) vs searched plan, T3E cycle model\n\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %9s %12s %8s %8s\n",
		"app", "greedy", "searched", "gap", "method", "states", "proven")
	maxGap, provenCount := 0.0, 0
	for _, r := range rows {
		proven := "-"
		if r.Proven {
			proven = "yes"
			provenCount++
			if r.GapPct > maxGap {
				maxGap = r.GapPct
			}
		}
		fmt.Fprintf(&b, "%-10s %14.0f %14.0f %8.1f%% %12s %8d %8s\n",
			r.Benchmark, r.HeuristicScore, r.TunedScore, r.GapPct,
			r.Method, r.States, proven)
	}
	fmt.Fprintf(&b, "\nAcross the %d benchmark(s) where exhaustive enumeration completed,\n"+
		"the greedy heuristic is within %.1f%% of the proven optimum.\n",
		provenCount, maxGap)
	return b.String()
}
