package check

import (
	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/lir"
)

// All runs every verifier pass over one compilation's artifacts and
// returns the concatenated reports. plan, lp and bounds may be nil when
// the corresponding phase has not run; procs is the distributed processor
// count (0 or 1 for a sequential compilation), which tells the
// comm-schedule pass whether primitives are expected or forbidden and
// gives the race pass its machine size.
func All(prog *air.Program, plan *core.Plan, lp *lir.Program, bounds *absint.Result, procs int) []Report {
	var out []Report
	out = append(out, AIRWellFormed(prog)...)
	if plan != nil {
		out = append(out, ASDGCrossCheck(prog, plan)...)
		out = append(out, FusionLegality(prog, plan)...)
		out = append(out, ContractionSafety(prog, plan)...)
	}
	if lp != nil {
		out = append(out, CommSchedule(prog, lp, procs > 1)...)
		out = append(out, Races(lp, procs)...)
		out = append(out, OuterParallel(plan, lp, bounds)...)
	}
	return out
}
