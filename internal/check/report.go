// Package check is a stage-by-stage static verifier for the
// fusion/contraction pipeline. It independently re-proves the legality
// facts the optimizer relies on — unconstrained distance vectors
// (Definition 2), ASDG edges (Definition 3), fusion-partition validity
// (Definition 5, Theorems 1–2), contraction safety (Definition 6), and
// the communication schedule of a distributed compilation — and
// rejects any compilation whose claims do not hold.
//
// Each pass re-derives its facts from scratch (a second, structurally
// different implementation of the same paper definitions) and compares
// them against what the pipeline computed. A clean program at every
// optimization level therefore certifies both the optimizer and the
// verifier; any report is a compiler bug, never a user error.
//
// That is why the passes read statements through their own type
// switches and not through air.Sweep, the pipeline's one definition of
// what a statement touches (DESIGN.md §35): the redundancy is the
// point. The halo bug DESIGN.md §33 mends survived as long as it did
// because dep and this package derived a receive's footprint from one
// shared idea; a verifier that read the pipeline's definition would
// certify any mistake in it.
package check

import (
	"fmt"
	"strings"

	"repro/internal/source"
)

// Pass names, one per verifier stage.
const (
	PassAIR         = "air-wellformed"
	PassASDG        = "asdg-crosscheck"
	PassFusion      = "fusion-legality"
	PassContraction = "contraction-safety"
	PassComm        = "comm-schedule"
)

// Report is one verifier diagnostic: which pass fired, how severe the
// finding is, where in the source the offending statement originated,
// and an explanation of the violated invariant.
type Report struct {
	Pass     string
	Severity source.Severity
	Pos      source.Pos
	Message  string
}

func (r Report) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s", r.Pos, r.Severity, r.Pass, r.Message)
}

// reporter accumulates reports for one pass.
type reporter struct {
	pass    string
	reports []Report
}

func (rp *reporter) errorf(pos source.Pos, format string, args ...interface{}) {
	rp.reports = append(rp.reports, Report{
		Pass: rp.pass, Severity: source.Error, Pos: pos,
		Message: fmt.Sprintf(format, args...),
	})
}

func (rp *reporter) warnf(pos source.Pos, format string, args ...interface{}) {
	rp.reports = append(rp.reports, Report{
		Pass: rp.pass, Severity: source.Warning, Pos: pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// Failure is the error returned when verification rejects a
// compilation. It carries every report so callers can print positioned
// diagnostics.
type Failure struct {
	Reports []Report
}

func (f *Failure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verification failed with %d report(s):", len(f.Reports))
	for _, r := range f.Reports {
		b.WriteString("\n  ")
		b.WriteString(r.String())
	}
	return b.String()
}

// Err wraps reports into a *Failure, or nil when there are none.
func Err(reports []Report) error {
	if len(reports) == 0 {
		return nil
	}
	return &Failure{Reports: reports}
}
