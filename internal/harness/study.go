package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
)

// Study is one entry of the paper's evaluation (§5) or of this
// repository's extensions to it. Everything cmd/experiments knows
// about a study is declared here: adding one is one Studies entry.
type Study struct {
	ID  string
	Doc string // one line, shown by `experiments -h` and in EXPERIMENTS.md
	// Outputs names what Run returns when that is not the single
	// output ID, so -run can select a study by one of its outputs.
	Outputs []string
	// Run measures the study. Every study is deterministic, and the
	// committed results/ files pin its outputs byte for byte
	// (TestResultsGolden). The study's fixed parameters (processor
	// counts, sweeps, chart widths) live in its declaration; only what
	// cmd/experiments' flags set comes from the Env.
	Run func(*Env) ([]Output, error)
}

// Output is one table of a study.
type Output struct {
	ID   string // the file stem under -out
	Text string // the table as printed, and as written to <ID>.txt
	Rows any    // when non-nil, the typed rows, written to <ID>.json
	Gate error  // non-nil when the study's acceptance condition failed
}

// Has reports whether id names the study or one of its outputs.
func (s Study) Has(id string) bool {
	return id == s.ID || slices.Contains(s.Outputs, id)
}

// Write writes the output into dir (created if needed): the table as
// <ID>.txt and, when there are rows, <ID>.json.
func (o Output) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := os.WriteFile(filepath.Join(dir, o.ID+".txt"), []byte(o.Text), 0o644)
	if err != nil || o.Rows == nil {
		return err
	}
	buf, err := json.MarshalIndent(o.Rows, "", "  ")
	if err != nil {
		return fmt.Errorf("%s.json: %w", o.ID, err)
	}
	return os.WriteFile(filepath.Join(dir, o.ID+".json"), append(buf, '\n'), 0o644)
}

// Usage lists the studies for `experiments -h`.
func Usage() string {
	var b strings.Builder
	for _, s := range Studies {
		id := s.ID
		if s.Outputs != nil {
			id += " (" + strings.Join(s.Outputs, ", ") + ")"
		}
		fmt.Fprintf(&b, "  %s\n    \t%s\n", id, s.Doc)
	}
	return b.String()
}

// study adapts a typed measurement and its rendering to Study.Run.
func study[R any](run func(*Env) (R, error), outputs func(R) []Output) func(*Env) ([]Output, error) {
	return func(e *Env) ([]Output, error) {
		r, err := run(e)
		if err != nil {
			return nil, err
		}
		return outputs(r), nil
	}
}

// gate is a study's acceptance condition: nil when ok holds.
func gate(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// Studies is the evaluation, in the order `experiments -run all`
// prints it.
var Studies = []Study{
	{ID: "fig6", Doc: "Fig. 6: which emulated compilers fuse and contract each Fig. 5 fragment",
		Run: study(func(*Env) (*Fig6Result, error) { return RunFig6() },
			func(r *Fig6Result) []Output { return []Output{{ID: "fig6", Text: r.Format()}} })},
	{ID: "fig7", Doc: "Fig. 7: static arrays with and without contraction",
		Run: study(RunFig7,
			func(rows []Fig7Row) []Output { return []Output{{ID: "fig7", Text: FormatFig7(rows)}} })},
	{ID: "fig8", Doc: "Fig. 8: growth of the largest problem that fits 64 MB, predicted and measured",
		Run: study(RunFig8,
			func(rows []Fig8Row) []Output { return []Output{{ID: "fig8", Text: FormatFig8(rows)}} })},
	{ID: "ladder", Outputs: []string{"fig9", "fig10", "fig11", "headline"},
		Doc: "Figs. 9-11 and the §1 headline: the §5.4 ladder on the three machine models",
		Run: study(func(e *Env) (*PerfResult, error) { return RunPerfStudy(e, []int{1, 4, 16, 64}) },
			func(r *PerfResult) []Output {
				var outs []Output
				for i, m := range machine.Models() {
					outs = append(outs, Output{
						ID: fmt.Sprintf("fig%d", 9+i),
						Text: r.FormatMachine(m.Name, fmt.Sprintf("Figure %d", 9+i)) +
							"\n" + r.FormatMachineBars(m.Name, 16, 40),
					})
				}
				return append(outs, Output{ID: "headline", Text: r.FormatHeadline()})
			})},
	{ID: "audit", Doc: "remark audit: every unfused pair and uncontracted array is explained",
		Run: study(func(e *Env) ([]AuditRow, error) { return AuditRemarks(e, core.AllLevels()) },
			func(rows []AuditRow) []Output {
				n := AuditProblems(rows)
				return []Output{{ID: "audit", Text: FormatAudit(rows),
					Gate: gate(n == 0, "remark audit: %d problem(s)", n)}}
			})},
	{ID: "tune", Doc: "plan search vs the greedy c2+f4 rung under the T3E cycle model",
		Run: study(RunTune,
			func(rows []TuneRow) []Output { return []Output{{ID: "tune", Text: FormatTune(rows), Rows: rows}} })},
	{ID: "race", Doc: "happens-before census of every schedule at p=2,4,8, plus seeded faults",
		Run: study(func(e *Env) ([]RaceRow, error) { return RunRace(e, 32, 2, 4, 8) },
			func(rows []RaceRow) []Output {
				return []Output{{ID: "race", Text: FormatRace(rows), Rows: rows,
					Gate: gate(RaceCleanAll(rows), "race study: a schedule was not fully proven ordered or a seeded fault escaped")}}
			})},
	{ID: "sec55", Doc: "§5.5: slowdown when favoring communication optimization over fusion",
		Run: study(func(e *Env) ([]Sec55Row, error) { return RunSec55(e, 16) },
			func(rows []Sec55Row) []Output { return []Output{{ID: "sec55", Text: FormatSec55(rows, 16)}} })},
	{ID: "origin", Doc: "Origin conjecture: favor-comm penalty on tomcatv as message startup falls",
		Run: study(func(e *Env) ([]LatencyPoint, error) {
			return RunLatencySensitivity(e, "tomcatv", 16, []float64{4800, 2400, 1200, 600, 300, 150})
		}, func(pts []LatencyPoint) []Output {
			return []Output{{ID: "origin", Text: FormatLatency("tomcatv", 16, pts)}}
		})},
}
