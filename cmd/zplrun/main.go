// Command zplrun compiles and executes a ZA program, optionally
// simulating it on one of the paper's machine models.
//
// Usage:
//
//	zplrun [flags] file.za
//
//	-bench name   run a built-in benchmark instead of a file:
//	              ep, frac, sp, tomcatv, simple, fibro
//	              (rejected together with a positional file argument)
//	-dist         execute on the distributed interpreter (real block
//	              decomposition and ghost exchanges) instead of the
//	              sequential VM; requires -p > 1
//	-machine m    t3e | sp2 | paragon | origin: print modeled cycles/time
//	              (applies to the sequential traced execution only;
//	              rejected together with -dist and -backend=go)
//	-maxsteps n   element-statement execution budget, per processor
//	              under -dist; 0 keeps the VM's default (1e10)
//	-remarks      print one optimization remark per fusion/contraction
//	              decision to stderr before executing
//	-timeout d    wall-clock deadline for the whole compile+run
//	              (e.g. 500ms, 10s); 0 disables
//
// plus zplc's pipeline flags (-O -backend -plan -config -p -comm
// -scalarrep -check -prove -noprove -provefault -norace), bound and
// validated by the same code (internal/job; see cmd/zplc or README's
// flag reference). Every usage error is reported before any compile.
//
// Exit codes distinguish the failure paths so scripts and the service
// can tell them apart — 0 success, 1 runtime error, 2 usage error,
// 3 compile error, 4 timeout; internal/job holds the table, next to
// the HTTP statuses zpld gives the same failures.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/job"
)

func main() {
	spec := job.Spec{Procs: 1, Strategy: "favor-fusion"}
	spec.Bind(flag.CommandLine, job.PipelineFlags...)
	spec.Bind(flag.CommandLine, "bench", "dist", "machine", "maxsteps")
	remarks := flag.Bool("remarks", false, "print optimization remarks to stderr before running")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for compile+run; 0 disables")
	fatal := func(err error) { spec.Fatal("zplrun", err) }
	if err := spec.Parse(flag.CommandLine, os.Args[1:]); err != nil {
		fatal(err)
	}
	src, opt, err := spec.Resolve()
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c, err := job.Compile(ctx, src.Text, opt)
	if err != nil {
		fatal(err)
	}
	if *remarks {
		remarks := c.Plan.Remarks()
		fmt.Fprintf(os.Stderr, "zplrun: %d remarks:\n", len(remarks))
		for _, r := range remarks {
			fmt.Fprintf(os.Stderr, "%s:%s\n", src.Name, r)
		}
	}

	rs := spec.RunSpec()
	res, err := job.Run(ctx, c, rs, os.Stdout, nil)
	if err != nil {
		fatal(err)
	}
	if res.Art != nil {
		cache := "miss"
		if res.Art.Hit {
			cache = "hit"
		}
		fmt.Fprintf(os.Stderr, "zplrun: native backend: artifact %.12s (cache %s, build %v), compute %v, system %v, wall %v, %d bytes of arrays\n",
			res.Art.Key, cache, res.Art.Build.Round(time.Millisecond), res.Compute, res.System, res.Wall, res.MemoryBytes)
		return
	}
	fmt.Fprintf(os.Stderr, "zplrun: %d element-statements, %d bytes of arrays\n", res.Steps, res.MemoryBytes)
	if t := res.Traffic; t != nil {
		fmt.Fprintf(os.Stderr, "zplrun: %d processors: %d barriers, %d reductions, %d halo messages (%d elements), %d parked waits\n",
			rs.Procs, t.Barriers, t.Reductions, t.HaloMessages, t.HaloElements, t.Parks)
	}
	if t := res.Cost; t != nil {
		fmt.Fprintf(os.Stderr, "zplrun: %s (p=%d): %.0f cycles (%.2f ms modeled), %.0f comm cycles\n",
			t.Model.Name, rs.Procs, t.Cycles, t.Seconds()*1000, t.CommCycles)
		for i, cache := range t.Hierarchy().Levels {
			fmt.Fprintf(os.Stderr, "zplrun:   %s: %d accesses, %.2f%% miss\n",
				t.Model.Caches[i].Name, cache.Accesses, cache.MissRate()*100)
		}
	}
}
