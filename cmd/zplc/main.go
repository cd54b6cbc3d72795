// Command zplc compiles a ZA array-language program and prints the
// requested intermediate form, the fusion/contraction decisions, or
// generated pseudo-C.
//
// Usage:
//
//	zplc [flags] file.za
//
//	-O level      optimization level: baseline, f1, c1, f2, f3, c2,
//	              c2+f3, c2+f4 (default c2+f3)
//	-backend b    vm (default; -emit output only) | go: additionally
//	              build the program natively into the content-addressed
//	              artifact store and print the artifact's address,
//	              binary path, cache outcome, and build time
//	-plan file    apply an externally supplied fusion/contraction plan
//	              (a zpltune -emit JSON spec) instead of the -O ladder
//	-emit form    ast | air | asdg | plan | c | go (default plan)
//	-config k=v   override a config constant (repeatable)
//	-p n          compile for n processors (inserts communication)
//	-comm strat   favor-fusion | favor-comm (with -p > 1)
//	-check        run the static verifier (zplcheck's passes) between
//	              pipeline phases; any finding fails the compilation
//	-prove        run the bounds prover so proven accesses compile
//	              unchecked (the default; combining it with -noprove
//	              is a usage error, exit 2)
//	-noprove      skip the prover: emitted code keeps every check
//	-provefault n seed an evidence fault into the n-th proven site
//	              (soundness self-test for the differential harness)
//	-remarks      print one optimization remark per fusion/contraction
//	              decision (the blocking edge, distance vector, and
//	              failed legality test for every negative decision)
//	-checkfault p verifier self-test: compile, inject a known bug
//	              aimed at pass p (air-wellformed, asdg-crosscheck,
//	              fusion-legality, contraction-safety, comm-schedule),
//	              and exit nonzero when — and only when — the pass
//	              catches it
//	-norace       skip the happens-before race & deadlock analyzer a
//	              distributed compilation (-p > 1) runs by default
//	-racefault k  race-analyzer self-test (with -p > 1): compile, seed
//	              a schedule fault of kind k (barrier: drop a required
//	              barrier; mispair: flip a send's direction; stale:
//	              move a send before its producing write) into a copy
//	              of the event schedule, and require the analyzer to
//	              reject it with a positioned diagnostic naming both
//	              events. Exit 1 when caught, 3 when missed (an
//	              analyzer bug), 2 when the program offers no site
//
// The request flags are bound and validated by internal/job (shared
// with zplrun): a usage error exits 2 before any compile, anything else 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/air"
	"repro/internal/ast"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/job"
	"repro/internal/lir"
	"repro/internal/mhp"
	"repro/internal/parser"
	"repro/internal/source"
)

// spec is the request (package-level so fatal can name its flags).
var spec = job.Spec{Procs: 1, Strategy: "favor-fusion"}

func main() {
	spec.Bind(flag.CommandLine, job.PipelineFlags...)
	emit := flag.String("emit", "plan", "output form: ast | air | asdg | plan | c | go")
	remarks := flag.Bool("remarks", false, "print one optimization remark per fusion/contraction decision")
	checkFault := flag.String("checkfault", "", "inject a seeded bug and require the named verifier pass to catch it")
	raceFault := flag.String("racefault", "", "seed a schedule fault (barrier | mispair | stale) and require the race analyzer to catch it")
	if err := spec.Parse(flag.CommandLine, os.Args[1:]); err != nil {
		fatal(err)
	}
	if *emit == "go" {
		spec.Sequential = "emit go"
	}
	src, opt, err := spec.Resolve()
	switch {
	case err != nil:
		fatal(err)
	case *raceFault != "" && spec.NoRace:
		fatal(job.Usagef("-racefault %s needs the analyzer that {norace} disables", *raceFault))
	case *raceFault != "" && spec.Procs < 2:
		fatal(job.Usagef("-racefault %s needs a distributed compilation ({procs} > 1)", *raceFault))
	}

	if *emit == "ast" {
		var errs source.ErrorList
		errs.File = src.Name
		prog := parser.Parse(src.Text, &errs)
		if errs.HasErrors() {
			fatal(&job.CompileError{Err: errs.Err()})
		}
		fmt.Print(ast.Format(prog))
		return
	}

	ctx := context.Background()
	c, err := job.Compile(ctx, src.Text, opt)
	if err != nil {
		fatal(err)
	}

	if *checkFault != "" {
		selfTest(c, *checkFault)
		return
	}
	if *raceFault != "" {
		raceSelfTest(c, *raceFault, spec.Procs)
		return
	}

	switch *emit {
	case "air":
		fmt.Print(air.Print(c.AIR))
	case "asdg":
		// The dependence-graph view of Fig. 2(d): vertices, edges,
		// and (variable, unconstrained distance vector, kind) labels.
		for _, bp := range c.Plan.Blocks {
			if bp.Graph.N() == 0 {
				continue
			}
			fmt.Printf("block %d:\n%s\n", bp.Block.ID, bp.Graph)
		}
	case "c":
		fmt.Print(lir.EmitC(c.LIR))
	case "go":
		src, err := gogen.EmitBounds(c.LIR, c.Bounds)
		if err != nil {
			fatal(&job.CompileError{Err: err})
		}
		fmt.Print(src)
	case "plan":
		printPlan(c)
	default:
		fatal(job.Usagef("unknown -emit form %q", *emit))
	}
	if *remarks {
		printRemarks(src.Name, c)
	}

	if opt.Backend.Native() {
		art, err := job.Build(ctx, c, "", nil)
		if err != nil {
			fatal(err)
		}
		cache := "miss"
		if art.Hit {
			cache = "hit"
		}
		fmt.Printf("artifact %s\nbinary %s\ncache %s\nbuild %v\n",
			art.Key, art.Bin, cache, art.Build.Round(time.Millisecond))
	}
}

// printRemarks lists the optimizer's decision records: why each
// candidate was or was not fused/contracted, with the blocking edge.
func printRemarks(file string, c *driver.Compilation) {
	remarks := c.Plan.Remarks()
	fmt.Printf("\nremarks (%d):\n", len(remarks))
	for _, r := range remarks {
		fmt.Printf("%s:%s\n", file, r)
	}
}

func printPlan(c *driver.Compilation) {
	fmt.Printf("program %s at %s\n", c.AIR.Name, c.Plan.Level)
	counts := core.CountStaticArrays(c.AIR, c.Plan)
	fmt.Printf("static arrays: %d (%d compiler, %d user); contracted: %d\n",
		counts.Before(), counts.TotalCompiler, counts.TotalUser,
		counts.ContractedCompiler+counts.ContractedUser)
	fmt.Printf("loop nests after fusion: %d\n\n", c.LIR.CountNests())
	for _, bp := range c.Plan.Blocks {
		if bp.Graph.N() == 0 {
			continue
		}
		fmt.Printf("block %d: partition %s\n", bp.Block.ID, bp.Part)
		if len(bp.Contracted) > 0 {
			fmt.Printf("  contracted: %s\n", strings.Join(bp.Contracted, ", "))
		}
		for _, cl := range bp.Part.TopoClusters() {
			if ls, ok := bp.Part.LoopStructureFor(cl); ok && ls != nil {
				if len(bp.Part.Members(cl)) > 1 {
					fmt.Printf("  cluster %d: loop structure %s\n", cl, ls)
				}
			}
		}
	}
	if c.Comm != nil {
		fmt.Printf("\ncommunication: %d inserted, %d eliminated\n", c.Comm.Inserted, c.Comm.Eliminated)
	}
}

// selfTest injects a deterministic bug into the compilation aimed at
// one verifier pass, then requires that pass to report it. Exit 1 with
// the diagnostics when the fault is caught (the expected outcome for
// driving the failure path in tests), exit 3 when the verifier missed
// the fault (a verifier bug), exit 2 when the program offers no fault
// site for the pass.
func selfTest(c *driver.Compilation, pass string) {
	var reps []check.Report
	seeded := true
	switch pass {
	case check.PassAIR:
		seeded = faultAIR(c)
		reps = check.AIRWellFormed(c.AIR)
	case check.PassASDG:
		seeded = faultASDG(c)
		reps = check.ASDGCrossCheck(c.AIR, c.Plan)
	case check.PassFusion:
		seeded = faultFusion(c)
		reps = check.FusionLegality(c.AIR, c.Plan)
	case check.PassContraction:
		seeded = faultContraction(c)
		reps = check.ContractionSafety(c.AIR, c.Plan)
	case check.PassComm:
		seeded = faultComm(c)
		reps = check.CommSchedule(c.AIR, c.LIR, c.Comm != nil)
	default:
		fatal(fmt.Errorf("-checkfault: unknown pass %q (want %s, %s, %s, %s, or %s)",
			pass, check.PassAIR, check.PassASDG, check.PassFusion,
			check.PassContraction, check.PassComm))
	}
	if !seeded {
		fmt.Fprintf(os.Stderr, "zplc: -checkfault %s: program offers no fault site for this pass\n", pass)
		os.Exit(2)
	}
	if len(reps) == 0 {
		fmt.Fprintf(os.Stderr, "zplc: -checkfault %s: injected fault was NOT detected (verifier bug)\n", pass)
		os.Exit(3)
	}
	fmt.Fprintf(os.Stderr, "zplc: -checkfault %s: fault detected, %d report(s):\n", pass, len(reps))
	for _, r := range reps {
		fmt.Fprintf(os.Stderr, "  %s\n", r)
	}
	os.Exit(1)
}

// raceSelfTest seeds one schedule fault of the given kind into a copy
// of the compilation's distributed event schedule and requires the
// happens-before analyzer to reject it. Exit 1 with the diagnostic
// when the fault is caught (the expected outcome), exit 3 when the
// analyzer missed it (an analyzer bug), exit 2 when the schedule
// offers no site for the kind (or the kind is unknown).
func raceSelfTest(c *driver.Compilation, kind string, procs int) {
	sched := mhp.BuildSchedule(c.LIR, procs)
	bad, err := mhp.Inject(sched, kind)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zplc: -racefault %s: %v\n", kind, err)
		os.Exit(2)
	}
	res := mhp.Analyze(bad)
	err = res.Err()
	if err == nil {
		fmt.Fprintf(os.Stderr, "zplc: -racefault %s: seeded schedule fault was NOT detected (analyzer bug):\n  %s\n",
			kind, strings.Join(bad.Faults, "\n  "))
		os.Exit(3)
	}
	fmt.Fprintf(os.Stderr, "zplc: -racefault %s: fault detected:\n  seeded: %s\n  caught: %v\n",
		kind, strings.Join(bad.Faults, "; "), err)
	os.Exit(1)
}

// faultAIR renames the first array statement's target to an
// undeclared name.
func faultAIR(c *driver.Compilation) bool {
	for _, b := range c.AIR.AllBlocks() {
		for _, s := range b.Stmts {
			if x, ok := s.(*air.ArrayStmt); ok {
				x.LHS = "zplfault$undeclared"
				return true
			}
		}
	}
	return false
}

// faultASDG perturbs one unconstrained distance vector in the
// optimizer's dependence graph.
func faultASDG(c *driver.Compilation) bool {
	for _, bp := range c.Plan.Blocks {
		if bp.Graph == nil {
			continue
		}
		for ei := range bp.Graph.Edges {
			for ii := range bp.Graph.Edges[ei].Items {
				it := &bp.Graph.Edges[ei].Items[ii]
				if it.Vector && len(it.U) > 0 {
					it.U[0] += 2
					return true
				}
			}
		}
	}
	return false
}

// faultFusion merges two clusters joined by a non-null flow
// dependence — exactly the fusion the optimizer must never perform.
func faultFusion(c *driver.Compilation) bool {
	for _, bp := range c.Plan.Blocks {
		if bp.Graph == nil || bp.Part == nil {
			continue
		}
		for _, e := range bp.Graph.Edges {
			for _, it := range e.Items {
				if it.Vector && it.Kind == dep.Flow && !it.U.IsZero() &&
					bp.Graph.IsFusible(e.From) && bp.Graph.IsFusible(e.To) {
					bp.Part.MergeSet(map[int]bool{
						bp.Part.ClusterOf(e.From): true,
						bp.Part.ClusterOf(e.To):   true,
					})
					return true
				}
			}
		}
	}
	return false
}

// faultContraction claims a contraction the plan never performed: the
// bookkeeping cross-check must notice the plan/blocks disagreement
// (and the audit usually also finds the live range escaping).
func faultContraction(c *driver.Compilation) bool {
	for _, b := range c.AIR.AllBlocks() {
		for _, s := range b.Stmts {
			if x, ok := s.(*air.ArrayStmt); ok && !c.Plan.Contracted[x.LHS] {
				c.Plan.Contracted[x.LHS] = true
				return true
			}
		}
	}
	return false
}

// faultComm drops the first receive from a distributed program, or
// injects a stray exchange into a sequential one.
func faultComm(c *driver.Compilation) bool {
	if c.Comm == nil {
		for _, p := range c.LIR.Procs {
			p.Body = append(p.Body, &lir.Comm{Array: "zplfault", Off: air.Offset{1}, Phase: air.CommRecv, MsgID: 1})
			return true
		}
		return false
	}
	dropped := false
	var drop func(nodes []lir.Node) []lir.Node
	drop = func(nodes []lir.Node) []lir.Node {
		var out []lir.Node
		for _, nd := range nodes {
			switch x := nd.(type) {
			case *lir.Comm:
				if !dropped && x.Phase == air.CommRecv {
					dropped = true
					continue
				}
			case *lir.Loop:
				x.Body = drop(x.Body)
			case *lir.While:
				x.Body = drop(x.Body)
			case *lir.If:
				x.Then = drop(x.Then)
				x.Else = drop(x.Else)
			}
			out = append(out, nd)
		}
		return out
	}
	for _, p := range c.LIR.Procs {
		p.Body = drop(p.Body)
	}
	return dropped
}

// fatal reports err and exits 2 for a usage error, 1 for anything else:
// 3 is taken by the fault self-tests' "fault missed" verdict.
func fatal(err error) {
	if code := spec.Report(os.Stderr, "zplc", err); code == job.ClassUsage.ExitCode() {
		os.Exit(code)
	}
	os.Exit(1)
}
