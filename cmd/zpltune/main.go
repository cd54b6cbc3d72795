// Command zpltune searches for a better fusion/contraction plan than
// the §5.4 strategy ladder's greedy one-shot heuristics: exhaustive
// enumeration of the legal plan space where the statement blocks are
// small enough (the result is then proven optimal under the cost
// model), beam search seeded with every ladder partition otherwise
// (the result is then guaranteed no worse than the ladder's).
//
// Usage:
//
//	zpltune [flags] file.za
//
//	-O level      the ladder heuristic to beat (default c2+f4)
//	-bench name   tune a built-in benchmark instead of a file:
//	              ep, frac, sp, tomcatv, simple, fibro
//	              (rejected together with a positional file argument)
//	-config k=v   override a config constant (repeatable)
//	-p n          tune the n-processor distributed compilation
//	-strategy s   favor-fusion | favor-comm (requires -p > 1)
//	-machine m    cost-model machine: t3e | sp2 | paragon | origin
//	              (default t3e)
//	-model m      cost model: cycle (analytic) | cache (simulated
//	              hierarchy sketch); default cycle
//	-beam n       beam width for large blocks (default 8)
//	-exhaustive n max fusible statements for exhaustive enumeration
//	              (default 12)
//	-states n     exhaustive state budget before falling back to beam
//	              (default 200000)
//	-measure      also compile and run the top-K candidate plans and
//	              pick the winner by wall clock (sequential only)
//	-backend b    measured-mode execution engine: vm (default) | go
//	              (build each candidate natively through the artifact
//	              store and time the binary, so the wall clocks match
//	              the engine the plan will actually run on)
//	-topk n       measured-mode candidate count (default 3)
//	-emit file    write the tuned plan spec JSON to file ("-" = stdout);
//	              feed it back with zplrun -plan or zplc -plan
//	-json         print the full tuning result as JSON instead of the
//	              table
//	-check        re-compile with the tuned plan under the static
//	              verifier (fusion legality, contraction safety) and
//	              fail on any finding
//	-timeout d    wall-clock deadline for the whole search
//
// Exit codes follow the zplrun scheme (the table is internal/job's):
// 0 success, 1 runtime error — including a tuned plan scoring worse
// than the heuristic, which the search's construction rules out —
// 2 usage, 3 compile error, 4 the -timeout deadline expired mid-search.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/job"
	"repro/internal/tune"
)

func main() {
	spec := job.Spec{Level: "c2+f4", Procs: 1, Backend: "vm"}
	spec.Bind(flag.CommandLine, "O", "bench", "config", "p", "strategy", "backend")
	mach := flag.String("machine", "t3e", "cost-model machine: t3e | sp2 | paragon | origin")
	model := flag.String("model", "cycle", "cost model: cycle | cache")
	beam := flag.Int("beam", 0, "beam width for large blocks (0 = default)")
	exhaustive := flag.Int("exhaustive", 0, "max fusible statements for exhaustive search (0 = default)")
	states := flag.Int("states", 0, "exhaustive state budget (0 = default)")
	measure := flag.Bool("measure", false, "run top-K candidates, pick by wall clock")
	topk := flag.Int("topk", 0, "measured-mode candidate count (0 = default)")
	emit := flag.String("emit", "", "write the tuned plan spec JSON to this file (\"-\" = stdout)")
	jsonOut := flag.Bool("json", false, "print the tuning result as JSON")
	runCheck := flag.Bool("check", false, "re-compile with the tuned plan under the static verifier")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for the search; 0 disables")
	fatal := func(err error) { spec.Fatal("zpltune", err) }
	if err := spec.Parse(flag.CommandLine, os.Args[1:]); err != nil {
		fatal(err)
	}
	if *measure {
		spec.Sequential = "measure"
	}
	src, dopt, err := spec.Resolve()
	if err != nil {
		fatal(err)
	}
	if dopt.Backend.Native() && !*measure {
		fatal(job.Usagef("{backend} go only affects measured mode; pass -measure"))
	}
	costModel, err := tune.ParseModel(*model, *mach, spec.Procs)
	if err != nil {
		fatal(err)
	}
	opt := tune.Options{
		Level:   dopt.Level,
		Model:   costModel,
		Configs: dopt.Configs,
		Comm:    dopt.Comm,
		Search:  tune.SearchOptions{Beam: *beam, ExhaustiveVertices: *exhaustive, MaxStates: *states},
		Measure: *measure,
		Backend: dopt.Backend,
		TopK:    *topk,
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := tune.Tune(ctx, src.Text, opt)
	if err != nil {
		fatal(err)
	}

	// The construction guarantee, asserted on every run: the beam is
	// seeded with the ladder, so the tuned plan can never score worse.
	if res.TunedScore > res.HeuristicScore {
		fatal(fmt.Errorf("tuned plan scores %.0f, worse than the %s heuristic's %.0f — search invariant violated",
			res.TunedScore, res.HeuristicLevel, res.HeuristicScore))
	}

	if *runCheck {
		dopt.Plan, dopt.Check = res.Spec, true
		if _, err := job.Compile(ctx, src.Text, dopt); err != nil {
			fatal(fmt.Errorf("tuned plan failed verification: %w", err))
		}
		fmt.Fprintln(os.Stderr, "zpltune: tuned plan passed the static verifier")
	}

	if *emit != "" {
		buf, err := res.Spec.Marshal()
		if err != nil {
			fatal(err)
		}
		if *emit == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*emit, buf, 0o644); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(formatResult(src.Name, res))
}

// formatResult renders the heuristic-vs-tuned comparison table.
func formatResult(name string, res *tune.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "zpltune: %s, model %s\n\n", name, res.Model)

	// Ladder rungs by score, best first, with the tuned plan in place.
	type row struct {
		name  string
		score float64
	}
	rows := []row{{"tuned", res.TunedScore}}
	for lvl, s := range res.LevelScores {
		rows = append(rows, row{lvl, s})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].score != rows[j].score {
			return rows[i].score < rows[j].score
		}
		return rows[i].name < rows[j].name
	})
	best := rows[0].score
	fmt.Fprintf(&b, "%-12s %14s %10s\n", "plan", "score (cycles)", "vs best")
	for _, r := range rows {
		marker := ""
		if r.name == "tuned" {
			if res.Proven {
				marker = "  <- optimal (proven by exhaustive search)"
			} else {
				marker = "  <- beam search (lower bound not proven)"
			}
		} else if r.name == res.HeuristicLevel {
			marker = "  <- heuristic baseline"
		}
		rel := "-"
		if best > 0 {
			rel = fmt.Sprintf("+%.1f%%", (r.score-best)/best*100)
		}
		fmt.Fprintf(&b, "%-12s %14.0f %10s%s\n", r.name, r.score, rel, marker)
	}

	fmt.Fprintf(&b, "\nheuristic %s: %.0f cycles; tuned: %.0f cycles (%+.1f%%); winner: %s\n",
		res.HeuristicLevel, res.HeuristicScore, res.TunedScore,
		-res.ImprovementPct, res.Winner)

	fmt.Fprintf(&b, "\n%-6s %6s %8s %10s %12s %14s %14s\n",
		"block", "stmts", "fusible", "method", "states", "heuristic", "tuned")
	for _, bs := range res.Blocks {
		fmt.Fprintf(&b, "%-6d %6d %8d %10s %12d %14.0f %14.0f\n",
			bs.Block, bs.Stmts, bs.Fusible, bs.Method, bs.States,
			bs.HeuristicScore, bs.TunedScore)
	}

	if len(res.Measured) > 0 {
		fmt.Fprintf(&b, "\nmeasured mode (%s wall clock):\n", res.MeasuredBackend)
		fmt.Fprintf(&b, "%-12s %14s %12s %12s\n", "plan", "model score", "wall ms", "steps")
		for _, m := range res.Measured {
			fmt.Fprintf(&b, "%-12s %14.0f %12.3f %12d\n", m.Name, m.ModelScore, m.WallMS, m.Steps)
		}
	}
	return b.String()
}
