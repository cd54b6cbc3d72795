package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/mhp"
)

// RaceRow is one benchmark × level × processor-count cell of the
// happens-before study: the verdict census over every conflicting
// cross-processor pair, the schedule's communication shape, and the
// seeded-fault differential (every fault the injector can seed into
// the cell's schedule must be rejected by the analyzer).
type RaceRow struct {
	Benchmark string `json:"benchmark"`
	Level     string `json:"level"`
	Procs     int    `json:"procs"`

	Pairs     int `json:"pairs"`
	Ordered   int `json:"ordered"`
	Race      int `json:"race"`
	Unknown   int `json:"unknown"`
	Deadlocks int `json:"deadlocks"`

	Sends    int `json:"sends"`
	Recvs    int `json:"recvs"`
	Barriers int `json:"barriers"`

	FaultsSeeded int `json:"faults_seeded"`
	FaultsCaught int `json:"faults_caught"`
}

// RunRace compiles every benchmark × level × processor-count cell at
// problem size n=size, runs the happens-before analyzer over the
// scalarized schedule, and then re-runs it over each seeded-fault
// mutation of that schedule. A cell that is not fully ProvenOrdered, or
// a seeded fault the analyzer misses, is an error, not a row — an
// unsound analysis invalidates the study.
func RunRace(e *Env, size int64, procs ...int) ([]RaceRow, error) {
	return eachCell(e, grid(core.AllLevels(), procs...), func(c cell) (RaceRow, error) {
		comp, err := driver.Compile(c.b.Source, c.options(map[string]int64{c.b.SizeConfig: size}))
		if err != nil {
			return RaceRow{}, err
		}
		res := comp.Races
		if res == nil {
			return RaceRow{}, fmt.Errorf("compilation carries no race analysis")
		}
		if !res.Clean() {
			return RaceRow{}, fmt.Errorf("schedule not proven ordered: race=%d unknown=%d deadlocks=%d",
				res.NumRace, res.NumUnknown, len(res.Deadlocks))
		}

		// Seeded-fault differential: every fault kind with a valid
		// injection site in this schedule must be caught. Kinds with no
		// site (e.g. a schedule with no communication) are skipped.
		sched := mhp.BuildSchedule(comp.LIR, c.procs)
		seeded, caught := 0, 0
		for _, kind := range mhp.FaultKinds() {
			bad, err := mhp.Inject(sched, kind)
			if err != nil {
				continue
			}
			seeded++
			if mhp.Analyze(bad).Err() != nil {
				caught++
			} else {
				return RaceRow{}, fmt.Errorf("seeded fault %v not rejected", bad.Faults)
			}
		}

		return RaceRow{
			Benchmark: c.b.Name,
			Level:     c.lvl.String(),
			Procs:     c.procs,

			Pairs:     len(res.Pairs),
			Ordered:   res.NumOrdered,
			Race:      res.NumRace,
			Unknown:   res.NumUnknown,
			Deadlocks: len(res.Deadlocks),

			Sends:    res.Sends,
			Recvs:    res.Recvs,
			Barriers: res.Barriers,

			FaultsSeeded: seeded,
			FaultsCaught: caught,
		}, nil
	})
}

// FormatRace renders the verdict-census table plus the summary lines
// the acceptance check reads.
func FormatRace(rows []RaceRow) string {
	var b strings.Builder
	b.WriteString("Happens-before analysis: verdict census over every conflicting\n")
	b.WriteString("cross-processor pair of every compiler-produced schedule, and the\n")
	b.WriteString("seeded-fault differential (each seeded schedule bug must be rejected)\n\n")
	fmt.Fprintf(&b, "%-10s %-10s %3s %6s %8s %5s %5s %5s %6s %6s %5s %7s\n",
		"app", "level", "p", "pairs", "ordered", "race", "unkn", "dead",
		"sends", "recvs", "barr", "faults")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10s %3d %6d %8d %5d %5d %5d %6d %6d %5d %3d/%-3d\n",
			r.Benchmark, r.Level, r.Procs, r.Pairs, r.Ordered, r.Race, r.Unknown,
			r.Deadlocks, r.Sends, r.Recvs, r.Barriers, r.FaultsCaught, r.FaultsSeeded)
	}

	pairs, ordered, seeded, caught := 0, 0, 0, 0
	for _, r := range rows {
		pairs += r.Pairs
		ordered += r.Ordered
		seeded += r.FaultsSeeded
		caught += r.FaultsCaught
	}
	fmt.Fprintf(&b, "\nconflicting pairs: %d across %d cells, %d proven ordered\n",
		pairs, len(rows), ordered)
	fmt.Fprintf(&b, "seeded faults caught: %d/%d\n", caught, seeded)
	fmt.Fprintf(&b, "every cell proven ordered, race- and deadlock-free: %t\n", RaceCleanAll(rows))
	return b.String()
}

// RaceCleanAll is the acceptance condition: every cell fully
// ProvenOrdered (no races, no unknowns, no deadlocks), every seeded
// fault caught, and the sweep non-vacuous (some pair was proven and
// some message was sent somewhere).
func RaceCleanAll(rows []RaceRow) bool {
	ordered, sends := 0, 0
	for _, r := range rows {
		if r.Race != 0 || r.Unknown != 0 || r.Deadlocks != 0 || r.FaultsCaught != r.FaultsSeeded {
			return false
		}
		ordered += r.Ordered
		sends += r.Sends
	}
	return ordered > 0 && sends > 0
}
