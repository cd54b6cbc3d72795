// Command zpllint is the source-level linter and optimization-remarks
// viewer for ZA programs. It runs the compiler's own analyses (sema,
// liveness, the fusion/contraction planner) and reports:
//
//   - lint findings: unused and write-only arrays, dead statements,
//     redundant and unused regions, shadowed declarations, @-offset
//     reads escaping the declared region, temporaries that would
//     contract but for a single offending reference (with a fix-it),
//     and the bounds prover's verdicts — an unproven access warns, a
//     proven-out-of-bounds access errors, and -bounds adds one note
//     per proven access with the evidence that eliminated its check;
//   - optimization remarks (-remarks): one structured record per
//     fusion/contraction decision, naming the blocking dependence
//     edge, its unconstrained distance vector, and the legality test
//     that failed.
//
// Usage:
//
//	zpllint [flags] file.za...
//
//	-O level       optimization level whose decisions back the
//	               remark-derived rules (default c2+f3)
//	-config k=v    override a config constant (repeatable)
//	-bench name    lint a built-in benchmark; "all" for every one
//	-format f      output format: text (default), json, or sarif
//	-remarks       include optimization remarks in the output
//	-bounds        emit one proven-bounds note per array access the
//	               bounds prover proves safe
//	-p n           lint the distributed compilation for n processors:
//	               communication is inserted and the happens-before
//	               analyzer classifies every conflicting cross-
//	               processor access pair (races and deadlocks are
//	               errors, unproven orderings warn)
//	-race          with -p > 1, emit one proven-ordered-comm note per
//	               conflicting pair, carrying the happens-before chain
//	               that orders it
//	-strict        exit nonzero on warnings, not just errors
//
// Exit status: 0 clean (notes never fail a run), 1 on error-severity
// findings or — with -strict — warnings, 2 on usage errors, 3 when a
// source fails to compile.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/lint"
	"repro/internal/remark"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("zpllint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	spec := job.Spec{Level: "c2+f3"}
	spec.Bind(fs, "O", "config", "bench", "p")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	strict := fs.Bool("strict", false, "exit nonzero on warnings too")
	remarks := fs.Bool("remarks", false, "include optimization remarks in the output")
	boundsNotes := fs.Bool("bounds", false, "emit one note per proven array access")
	raceNotes := fs.Bool("race", false, "emit one note per proven-ordered conflicting pair (with -p > 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int { return spec.Report(os.Stderr, "zpllint", err) }

	lvl, err := core.ParseLevel(spec.Level)
	if err != nil {
		return usage(job.Usagef("%v", err))
	}
	if *raceNotes && spec.Procs < 2 {
		return usage(job.Usagef("-race needs a distributed lint ({procs} > 1)"))
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		return usage(job.Usagef("unknown format %q (want text, json, or sarif)", *format))
	}
	units, err := job.Sources(spec.Bench, fs.Args())
	if err != nil {
		return usage(err)
	}

	var all []lint.Finding
	var allRemarks []remark.Remark
	compileFailed := false
	for _, u := range units {
		res, err := lint.Run(u.Text, lint.Options{File: u.Name, Level: lvl, Configs: spec.Configs,
			BoundsNotes: *boundsNotes, Procs: spec.Procs, RaceNotes: *raceNotes})
		if err != nil {
			fmt.Fprintf(os.Stderr, "zpllint: %s: %v\n", u.Name, err)
			compileFailed = true
			continue
		}
		all = append(all, res.Findings...)
		if *remarks {
			if *format == "text" {
				lint.EncodeText(os.Stdout, u.Name, nil, res.Remarks)
			} else if len(units) == 1 {
				allRemarks = res.Remarks
			}
		}
	}

	switch *format {
	case "text":
		lint.EncodeText(os.Stdout, "", all, nil)
	case "json":
		name := units[0].Name
		if len(units) > 1 {
			name = ""
		}
		if err := lint.EncodeJSON(os.Stdout, name, all, allRemarks); err != nil {
			fmt.Fprintln(os.Stderr, "zpllint:", err)
			return 2
		}
	case "sarif":
		if err := lint.EncodeSARIF(os.Stdout, "zpllint", all); err != nil {
			fmt.Fprintln(os.Stderr, "zpllint:", err)
			return 2
		}
	}

	if compileFailed {
		return 3
	}
	for _, f := range all {
		if f.Severity == lint.SevError {
			return 1
		}
		if *strict && f.Severity == lint.SevWarning {
			return 1
		}
	}
	return 0
}
