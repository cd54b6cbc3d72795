// Command zplcheck runs the stage-by-stage static verifier over ZA
// programs: it compiles each source at each requested optimization
// level, then independently re-proves what the optimizer claimed —
// AIR well-formedness, every ASDG dependence edge, fusion legality of
// the chosen partition (Theorems 1–2), contraction safety of every
// contracted array, and the distributed communication schedule.
//
// Usage:
//
//	zplcheck [flags] file.za...
//
//	-O levels     comma-separated optimization levels to verify at
//	              (default "baseline,c1,c2,c2+f3"); "all" expands to
//	              the paper's full ladder plus extensions
//	-pass names   comma-separated verifier passes to run (default
//	              "all"): air-wellformed, asdg-crosscheck,
//	              fusion-legality, contraction-safety, comm-schedule,
//	              bounds, race. The bounds pass re-derives every array
//	              access hull and cross-checks the abstract
//	              interpreter's ProvenSafe evidence; the race pass
//	              rebuilds the distributed event schedule and proves
//	              every conflicting cross-processor access pair
//	              happens-before ordered and the send/recv matching
//	              deadlock-free (needs -p > 1 to have any schedule
//	              to analyze)
//	-p n          additionally verify a distributed compilation for
//	              n processors (communication inserted)
//	-config k=v   override a config constant (repeatable)
//	-bench name   verify a built-in benchmark (ep, frac, sp, tomcatv,
//	              simple, fibro) instead of files; "all" verifies every
//	              one (combines with positional files)
//	-v            list each verified configuration, not just failures
//	-json         emit the findings as a machine-readable JSON report
//	              (per-rule counts included) instead of text
//	-sarif        emit the findings as a SARIF 2.1.0 log instead of text
//
// With -json or -sarif each finding's rule ID is the verifier pass
// name prefixed "check/" (e.g. check/fusion), and the file field is
// the configuration label ("file.za at c2+f3"), so one report covers
// every (unit, level) pair.
//
// Exit status is 0 when every configuration verifies clean, 1 when
// any pass reports, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/job"
	"repro/internal/lint"
)

func main() {
	var spec job.Spec
	spec.Bind(flag.CommandLine, "config", "p", "bench")
	levelsFlag := flag.String("O", "baseline,c1,c2,c2+f3", "comma-separated optimization levels; \"all\" for the full ladder")
	passFlag := flag.String("pass", "all", "comma-separated verifier passes; \"all\" runs every pass")
	verbose := flag.Bool("v", false, "list clean configurations too")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON report")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	flag.Parse()
	fatal := func(err error) { spec.Fatal("zplcheck", err) }

	units, err := job.Sources(spec.Bench, flag.Args())
	if err != nil {
		fatal(err)
	}
	levels := core.AllLevels()
	if *levelsFlag != "all" {
		levels = nil
		for _, name := range strings.Split(*levelsFlag, ",") {
			lvl, err := core.ParseLevel(strings.TrimSpace(name))
			if err != nil {
				fatal(job.Usagef("%v", err))
			}
			levels = append(levels, lvl)
		}
	}
	if *jsonOut && *sarifOut {
		fatal(job.Usagef("-json and -sarif are mutually exclusive"))
	}
	passes, err := parsePasses(*passFlag)
	if err != nil {
		fatal(err)
	}
	co, err := job.CommOptions(spec.Procs, "")
	if err != nil {
		fatal(err)
	}
	var collect []lint.Finding
	structured := *jsonOut || *sarifOut

	configurations, failures := 0, 0
	for _, u := range units {
		for _, lvl := range levels {
			var collector *[]lint.Finding
			if structured {
				collector = &collect
			}
			failures += verify(u, lvl, driver.Options{Level: lvl, Configs: spec.Configs}, "", *verbose, passes, collector)
			configurations++
			if co != nil {
				failures += verify(u, lvl,
					driver.Options{Level: lvl, Configs: spec.Configs, Comm: co},
					fmt.Sprintf(" p=%d", co.Procs), *verbose, passes, collector)
				configurations++
			}
		}
	}
	switch {
	case *jsonOut:
		err = lint.EncodeJSON(os.Stdout, "", collect, nil)
	case *sarifOut:
		err = lint.EncodeSARIF(os.Stdout, "zplcheck", collect)
	default:
		fmt.Printf("zplcheck: %d configuration(s), %d with findings\n", configurations, failures)
	}
	if err != nil {
		fatal(job.Usagef("%v", err))
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// verify compiles one source at one level WITHOUT the driver's inline
// gates, then runs every pass so all findings surface at once (the
// inline gates stop at the first failing phase). Returns 1 on any
// finding or compile error, 0 when clean. When collect is non-nil the
// findings are appended there (labelled with the configuration) for a
// structured report instead of being printed.
func verify(u job.Source, lvl core.Level, opt driver.Options, suffix string, verbose bool, passes map[string]bool, collect *[]lint.Finding) int {
	label := fmt.Sprintf("%s at %s%s", u.Name, lvl, suffix)
	c, err := driver.Compile(u.Text, opt)
	if err != nil {
		if collect != nil {
			*collect = append(*collect, lint.Finding{
				Rule: "check/compile", Severity: lint.SevError,
				File: label, Message: err.Error(),
			})
		} else {
			fmt.Printf("%s: compile error: %v\n", label, err)
		}
		return 1
	}
	nprocs := 0
	if opt.Comm != nil {
		nprocs = opt.Comm.Procs
	}
	reps := runPasses(c, passes, nprocs)
	if collect != nil {
		*collect = append(*collect, lint.FromReports(label, reps)...)
	}
	if len(reps) == 0 {
		if verbose && collect == nil {
			fmt.Printf("%s: ok\n", label)
		}
		return 0
	}
	if collect == nil {
		fmt.Printf("%s: %d finding(s)\n", label, len(reps))
		for _, r := range reps {
			fmt.Printf("  %s\n", r)
		}
	}
	return 1
}

// knownPasses maps every selectable pass name to true.
var knownPasses = map[string]bool{
	check.PassAIR:         true,
	check.PassASDG:        true,
	check.PassFusion:      true,
	check.PassContraction: true,
	check.PassComm:        true,
	check.PassBounds:      true,
	check.PassRace:        true,
}

// parsePasses turns the -pass flag into a selection set; nil means all.
func parsePasses(s string) (map[string]bool, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	sel := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if !knownPasses[name] {
			return nil, job.Usagef("unknown verifier pass %q (want all, %s, %s, %s, %s, %s, %s, or %s)",
				name, check.PassAIR, check.PassASDG, check.PassFusion,
				check.PassContraction, check.PassComm, check.PassBounds, check.PassRace)
		}
		sel[name] = true
	}
	return sel, nil
}

// runPasses runs the selected verifier passes (nil = every pass) over
// one compilation. The bounds pass cross-checks the abstract
// interpreter's result, which the driver attaches to the compilation
// by default; the race pass rebuilds and re-analyzes the distributed
// event schedule for nprocs processors (0 for a sequential unit).
func runPasses(c *driver.Compilation, sel map[string]bool, nprocs int) []check.Report {
	want := func(p string) bool { return sel == nil || sel[p] }
	var out []check.Report
	if want(check.PassAIR) {
		out = append(out, check.AIRWellFormed(c.AIR)...)
	}
	if c.Plan != nil {
		if want(check.PassASDG) {
			out = append(out, check.ASDGCrossCheck(c.AIR, c.Plan)...)
		}
		if want(check.PassFusion) {
			out = append(out, check.FusionLegality(c.AIR, c.Plan)...)
		}
		if want(check.PassContraction) {
			out = append(out, check.ContractionSafety(c.AIR, c.Plan)...)
		}
	}
	if c.LIR != nil {
		if want(check.PassComm) {
			out = append(out, check.CommSchedule(c.AIR, c.LIR, c.Comm != nil)...)
		}
		if want(check.PassBounds) && c.Bounds != nil {
			out = append(out, check.Bounds(c.LIR, c.Bounds)...)
		}
		if want(check.PassRace) {
			out = append(out, check.Races(c.LIR, nprocs)...)
		}
	}
	return out
}
