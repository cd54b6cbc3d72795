package check

import (
	"repro/internal/lir"
	"repro/internal/mhp"
)

// PassRace is the happens-before race & deadlock pass: it rebuilds the
// per-processor event schedule from the scalarized LIR and requires
// every conflicting cross-processor access pair to be ProvenOrdered
// and the send/recv matching deadlock-free (internal/mhp).
const PassRace = "race"

// Races runs the may-happen-in-parallel analyzer over a distributed
// compilation's LIR and converts its findings to verifier reports:
// races and deadlocks are errors, Unknown pairs are warnings (they
// cannot occur in compiler-produced schedules, which always carry
// region bounds). procs below two is the sequential degenerate case
// and reports nothing.
func Races(lp *lir.Program, procs int) []Report {
	rp := &reporter{pass: PassRace}
	if lp == nil || procs < 2 {
		return nil
	}
	res := mhp.Analyze(mhp.BuildSchedule(lp, procs))
	for _, d := range res.Deadlocks {
		rp.errorf(d.Pos, "deadlock: %s", d.Message)
	}
	for _, p := range res.Pairs {
		switch p.Verdict {
		case mhp.Race:
			rp.errorf(p.Second.Pos, "data race: %s may happen in parallel with %s: %s",
				p.First, p.Second, p.Evidence())
		case mhp.Unknown:
			rp.warnf(p.Second.Pos, "unproven ordering: %s vs %s: %s",
				p.First, p.Second, p.Evidence())
		}
	}
	return rp.reports
}
