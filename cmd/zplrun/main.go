// Command zplrun compiles and executes a ZA program, optionally
// simulating it on one of the paper's machine models.
//
// Usage:
//
//	zplrun [flags] file.za
//
//	-O level      optimization level (default c2+f3)
//	-backend b    execution backend: vm (the bytecode interpreter,
//	              default) | go (emit Go, build it with the host
//	              toolchain into the content-addressed artifact store,
//	              and execute the native binary; output is asserted
//	              bit-identical to the VM by the differential harness,
//	              see experiments -run backend)
//	-plan file    apply an externally supplied fusion/contraction plan
//	              (a zpltune -emit JSON spec) instead of the -O ladder;
//	              the plan is re-proved legal before execution
//	-config k=v   override a config constant (repeatable)
//	-p n          simulate n processors (communication inserted)
//	-dist         execute on the distributed interpreter (real block
//	              decomposition and ghost exchanges) instead of the
//	              sequential VM; requires -p > 1
//	-machine m    t3e | sp2 | paragon: print modeled cycles/time
//	              (applies to the sequential traced execution only;
//	              rejected together with -dist)
//	-bench name   run a built-in benchmark instead of a file:
//	              ep, frac, sp, tomcatv, simple, fibro
//	              (rejected together with a positional file argument)
//	-check        run the static verifier between pipeline phases;
//	              any finding aborts before execution
//	-prove        run the abstract-interpretation bounds prover and
//	              execute proven accesses unchecked (this is the
//	              default; the flag exists to assert it explicitly —
//	              combining it with -noprove is a usage error)
//	-noprove      skip the prover: every array access stays checked
//	-norace       skip the happens-before race & deadlock analyzer a
//	              distributed compilation (-p > 1) runs by default
//	-provefault n seed a one-element evidence fault into the n-th
//	              proven site (soundness self-test; the differential
//	              harness must observe the divergence)
//	-remarks      print one optimization remark per fusion/contraction
//	              decision to stderr before executing
//	-timeout d    wall-clock deadline for the whole compile+run
//	              (e.g. 500ms, 10s); 0 disables
//	-maxsteps n   element-statement execution budget; 0 keeps the
//	              interpreter default
//
// Exit codes distinguish the failure paths (so scripts and the service
// can tell them apart):
//
//	0  success
//	1  runtime error (execution fault, budget exhaustion, or a
//	   native-binary runtime trap under -backend=go)
//	2  usage error (bad flags, conflicting sources, no go toolchain
//	   for -backend=go)
//	3  compile error (parse/sema/lowering/verifier failure, or a
//	   go build failure of emitted code — the toolchain diagnostics
//	   are surfaced on stderr)
//	4  timeout (the -timeout deadline expired: compiling, building,
//	   or running)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/programs"
	"repro/internal/vm"
)

// Exit codes; keep in sync with the doc comment above.
const (
	exitRuntime = 1
	exitUsage   = 2
	exitCompile = 3
	exitTimeout = 4
)

type configFlags map[string]int64

func (c configFlags) String() string { return fmt.Sprintf("%v", map[string]int64(c)) }

func (c configFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return err
	}
	c[k] = n
	return nil
}

func main() {
	level := flag.String("O", "c2+f3", "optimization level")
	backendName := flag.String("backend", "vm", "execution backend: vm | go")
	planFile := flag.String("plan", "", "apply a plan spec JSON file instead of the -O ladder")
	procs := flag.Int("p", 1, "processor count")
	distributed := flag.Bool("dist", false, "run on the distributed interpreter")
	mach := flag.String("machine", "", "machine model: t3e | sp2 | paragon")
	bench := flag.String("bench", "", "built-in benchmark name")
	runCheck := flag.Bool("check", false, "run the static verifier between pipeline phases")
	prove := flag.Bool("prove", false, "run the bounds prover and eliminate proven checks (the default; spell it to assert it)")
	noProve := flag.Bool("noprove", false, "skip the bounds prover: every array access stays checked")
	noRace := flag.Bool("norace", false, "skip the happens-before race analyzer on distributed compilations")
	proveFault := flag.Int("provefault", 0, "seed an evidence fault into the n-th proven site (soundness self-test); 0 disables")
	remarks := flag.Bool("remarks", false, "print optimization remarks to stderr before running")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for compile+run; 0 disables")
	maxSteps := flag.Int64("maxsteps", 0, "element-statement execution budget; 0 = interpreter default")
	configs := configFlags{}
	flag.Var(configs, "config", "override a config constant, key=value")
	flag.Parse()

	var src string
	switch {
	case *prove && *noProve:
		// A silent winner would either run checks the user asked to drop
		// or drop checks the user asked to keep.
		fatalUsage(fmt.Errorf("-prove and -noprove are contradictory: pick one"))
	case *noProve && *proveFault > 0:
		fatalUsage(fmt.Errorf("-provefault %d needs the prover that -noprove disables", *proveFault))
	case *bench != "" && flag.NArg() > 0:
		// A silent choice between the two sources would run something
		// other than what the user named.
		fatalUsage(fmt.Errorf("-bench %s conflicts with file argument %q: pass one program source, not both", *bench, flag.Arg(0)))
	case *bench != "":
		b, ok := programs.ByName(*bench)
		if !ok {
			fatalUsage(fmt.Errorf("unknown benchmark %q", *bench))
		}
		src = b.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatalUsage(err)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: zplrun [flags] file.za")
		flag.Usage()
		os.Exit(exitUsage)
	}

	lvl, err := core.ParseLevel(*level)
	if err != nil {
		fatalUsage(err)
	}
	be, err := driver.ParseBackend(*backendName)
	if err != nil {
		fatalUsage(err)
	}
	if be.Native() {
		// The native backend is the sequential execution engine; the
		// interpreter-only features are rejected rather than silently
		// ignored.
		switch {
		case *distributed:
			fatalUsage(fmt.Errorf("-backend=go cannot be combined with -dist (native code is the sequential program)"))
		case *procs > 1:
			fatalUsage(fmt.Errorf("-backend=go cannot be combined with -p > 1 (no communication in native code)"))
		case *mach != "":
			fatalUsage(fmt.Errorf("-backend=go cannot be combined with -machine (cost models price the traced VM execution)"))
		case *maxSteps != 0:
			fatalUsage(fmt.Errorf("-backend=go does not support -maxsteps (step budgets are an interpreter feature)"))
		}
		if !backend.Available() {
			fatalUsage(fmt.Errorf("-backend=go requires a go toolchain on PATH"))
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opt := driver.Options{Level: lvl, Configs: configs, Check: *runCheck, Backend: be,
		NoProve: *noProve, ProveFault: *proveFault, NoRace: *noRace}
	if *planFile != "" {
		data, err := os.ReadFile(*planFile)
		if err != nil {
			fatalUsage(err)
		}
		spec, err := core.ParseSpec(data)
		if err != nil {
			fatalUsage(fmt.Errorf("-plan %s: %w", *planFile, err))
		}
		opt.Plan = spec
	}
	if *procs > 1 {
		co := comm.DefaultOptions(*procs)
		opt.Comm = &co
	}
	c, err := driver.CompileCtx(ctx, src, opt)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fatalTimeout(fmt.Errorf("timeout after %v while compiling", *timeout))
		}
		fatalCompile(err)
	}

	if *remarks {
		name := flag.Arg(0)
		if name == "" {
			name = "bench:" + *bench
		}
		fmt.Fprintf(os.Stderr, "zplrun: %d remarks:\n", len(c.Plan.Remarks))
		for _, r := range c.Plan.Remarks {
			fmt.Fprintf(os.Stderr, "%s:%s\n", name, r)
		}
	}

	if be.Native() {
		runNative(ctx, c, *timeout)
		return
	}

	var model *machine.Model
	switch *mach {
	case "":
	case "t3e":
		m := machine.T3E()
		model = &m
	case "sp2":
		m := machine.SP2()
		model = &m
	case "paragon":
		m := machine.Paragon()
		model = &m
	default:
		fatalUsage(fmt.Errorf("unknown machine %q", *mach))
	}

	if *distributed {
		if *procs < 2 {
			fatalUsage(fmt.Errorf("-dist requires -p > 1"))
		}
		if model != nil {
			// The machine models price a traced sequential execution;
			// the distributed interpreter performs real exchanges and
			// has no tracer, so the model would be silently ignored.
			fatalUsage(fmt.Errorf("-machine %s cannot be combined with -dist: cost models apply to the sequential (traced) execution only", *mach))
		}
		dm, err := distvm.Run(c.LIR, distvm.Options{Procs: *procs, Out: os.Stdout, MaxSteps: *maxSteps, Ctx: ctx})
		if err != nil {
			fatalRun(err, *timeout)
		}
		if err := dm.ScalarsConsistent(); err != nil {
			fatal(fmt.Errorf("replicated-scalar invariant violated: %w", err))
		}
		fmt.Fprintf(os.Stderr, "zplrun: %d element-statements, %d bytes of arrays\n",
			dm.Steps(), dm.MemoryFootprint())
		fmt.Fprintf(os.Stderr, "zplrun: distributed execution on %d processors complete\n", *procs)
		return
	}

	vopt := vm.Options{Out: os.Stdout, MaxSteps: *maxSteps, Ctx: ctx}
	var tracer *machine.CostTracer
	if model != nil {
		tracer = machine.NewCostTracer(*model, *procs)
		vopt.Tracer = tracer
	}
	m, res, err := c.Run(vopt)
	if err != nil {
		fatalRun(err, *timeout)
	}
	fmt.Fprintf(os.Stderr, "zplrun: %d element-statements, %d bytes of arrays\n",
		res.Steps, m.MemoryFootprint())
	if tracer != nil {
		fmt.Fprintf(os.Stderr, "zplrun: %s (p=%d): %.0f cycles (%.2f ms modeled), %.0f comm cycles\n",
			model.Name, *procs, tracer.Cycles, tracer.Seconds()*1000, tracer.CommCycles)
		for i, cache := range tracer.Hierarchy().Levels {
			fmt.Fprintf(os.Stderr, "zplrun:   %s: %d accesses, %.2f%% miss\n",
				model.Caches[i].Name, cache.Accesses, cache.MissRate()*100)
		}
	}
}

// runNative builds the compiled program into the content-addressed
// artifact store and executes the binary, mapping the failure paths
// onto zplrun's exit codes: a go build failure of emitted code is a
// compile error (exit 3, toolchain diagnostics on stderr), a runtime
// trap in the generated binary is a runtime error (exit 1), and a
// deadline expiry either way is a timeout (exit 4).
func runNative(ctx context.Context, c *driver.Compilation, timeout time.Duration) {
	store, err := backend.Open("")
	if err != nil {
		fatal(err)
	}
	art, _, err := store.BuildProgramBounds(ctx, c.LIR, c.Bounds)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fatalTimeout(fmt.Errorf("timeout after %v while building native code", timeout))
		}
		// Emission errors and *backend.BuildError both mean the
		// program never reached execution: compile error.
		fatalCompile(err)
	}
	stats, err := art.Run(ctx, os.Stdout)
	if err != nil {
		fatalRun(err, timeout)
	}
	cache := "miss"
	if art.Hit {
		cache = "hit"
	}
	fmt.Fprintf(os.Stderr, "zplrun: native backend: artifact %.12s (cache %s, build %v), compute %v, wall %v\n",
		art.Key, cache, art.Build.Round(time.Millisecond), stats.Compute, stats.Wall)
}

// fatalRun classifies an execution failure: a deadline expiry is a
// timeout (exit 4), everything else a runtime error (exit 1).
func fatalRun(err error, timeout time.Duration) {
	if errors.Is(err, context.DeadlineExceeded) {
		fatalTimeout(fmt.Errorf("timeout after %v while running: %w", timeout, err))
	}
	fatal(err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zplrun:", err)
	os.Exit(exitRuntime)
}

func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "zplrun:", err)
	os.Exit(exitUsage)
}

func fatalCompile(err error) {
	fmt.Fprintln(os.Stderr, "zplrun: compile error:", err)
	os.Exit(exitCompile)
}

func fatalTimeout(err error) {
	fmt.Fprintln(os.Stderr, "zplrun:", err)
	os.Exit(exitTimeout)
}
