// Package driver runs the end-to-end compilation pipeline:
//
//	source → parse → sema → lower (normalize) → [comm insertion]
//	       → fusion/contraction plan → scalarize → LIR
//
// and executes the result on the VM. Each Compile call lowers a fresh
// program instance, so strategies can be compared side by side without
// sharing mutable IR.
package driver

import (
	"context"
	"fmt"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/check"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/lir"
	"repro/internal/lower"
	"repro/internal/mhp"
	"repro/internal/parser"
	"repro/internal/scalarize"
	"repro/internal/sema"
	"repro/internal/source"
	"repro/internal/vm"
)

// Hooks observes pipeline phase boundaries. The driver brackets each
// phase with PhaseStart(name)/PhaseEnd(name); the names it emits are
// "parse", "sema", "lower", "comm", "asdg", "fusion", "contraction",
// "scalarize", "prove", "race", and "check" (the optimizer's internal asdg/
// fusion/contraction phases are reported once per statement block). Either
// callback may be nil. A Hooks value belongs to a single Compile call:
// it is invoked sequentially, but two concurrent compilations must not
// share one stateful pair.
type Hooks struct {
	PhaseStart func(name string)
	PhaseEnd   func(name string)
}

func (h Hooks) begin(name string) {
	if h.PhaseStart != nil {
		h.PhaseStart(name)
	}
}

func (h Hooks) done(name string) {
	if h.PhaseEnd != nil {
		h.PhaseEnd(name)
	}
}

// Backend names an execution engine for the compiled program. The
// driver itself always produces the same IR; the backend choice is
// carried in Options because it shapes the *artifact* a cached
// compilation must hold (the native backend's entry includes a built
// binary), so it participates in the ccache fingerprint.
type Backend string

// The execution backends.
const (
	// BackendVM interprets the LIR on the bytecode VM (the default;
	// the empty string means BackendVM).
	BackendVM Backend = "vm"
	// BackendGo emits the LIR as Go, builds it with the host
	// toolchain, and executes the native binary (internal/backend).
	BackendGo Backend = "go"
)

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "vm":
		return BackendVM, nil
	case "go":
		return BackendGo, nil
	}
	return BackendVM, fmt.Errorf("unknown backend %q (want vm or go)", s)
}

// Native reports whether the backend executes host machine code.
func (b Backend) Native() bool { return b == BackendGo }

// Options selects problem size and optimization strategy.
type Options struct {
	// Configs overrides config constants by name (problem size).
	Configs map[string]int64
	// Level is the optimization strategy (§5.4 ladder).
	Level core.Level
	// Comm, when non-nil, inserts and optimizes communication for a
	// distributed execution with the given settings (§5.5).
	Comm *comm.Options
	// Plan, when non-nil, supplies the fusion/contraction plan
	// externally (core.ApplySpec) instead of running the Level ladder:
	// the path by which a zpltune-found plan reaches the backend. The
	// spec is re-proved legal during application; Level is ignored.
	Plan *core.PlanSpec
	// ScalarReplace additionally installs scalar replacement in the
	// generated loop nests (the §6 related-work technique; repeated
	// per-iteration reads load once into a register).
	ScalarReplace bool
	// Check runs the static verifier (package check) between pipeline
	// phases and fails the compilation on any report.
	Check bool
	// NoProve disables the bounds prover
	// (internal/absint). By default every compilation carries per-site
	// safety verdicts (Compilation.Bounds) that let the VM and the
	// native emitter drop bounds checks at ProvenSafe sites; NoProve
	// keeps every runtime check, which is the differential baseline the
	// prove harness compares against. The flag participates in the
	// ccache fingerprint: checked and unchecked artifacts never alias.
	NoProve bool
	// ProveFault, when > 0, makes the prover deliberately perturb the
	// evidence of the Nth ProvenSafe site (1-based) by one element — a
	// seeded miscompile for the soundness self-test. The bounds
	// verifier (check.Bounds, enabled with Check) and the differential
	// harness must both catch it.
	ProveFault int
	// NoRace disables the happens-before race & deadlock analyzer
	// (internal/mhp). By default every distributed compilation proves
	// its comm schedule race- and deadlock-free and carries the verdict
	// census (Compilation.Races); NoRace skips the proof, which is only
	// appropriate for tools that re-run the analyzer themselves. Like
	// NoProve it participates in the ccache fingerprint.
	NoRace bool
	// Backend selects the execution engine the artifact targets; the
	// zero value is BackendVM. The pipeline is backend-independent,
	// but the fingerprint is not: a native-backend artifact carries a
	// built binary a VM artifact does not (see ccache.Fingerprint).
	Backend Backend
	// Hooks observes phase boundaries (metrics, tracing). Not part of
	// a compilation's semantic identity: two Options differing only in
	// Hooks produce identical artifacts (see ccache.Fingerprint).
	Hooks Hooks
}

// Compilation is the result of one pipeline run.
type Compilation struct {
	Info *sema.Info
	AIR  *air.Program
	Plan *core.Plan
	LIR  *lir.Program
	Comm *comm.Result // nil when communication was not requested
	// Bounds carries the per-access-site safety verdicts of the bounds
	// prover; nil when Options.NoProve disabled it. Backends consult it
	// to elide proven checks.
	Bounds *absint.Result
	// Races carries the happens-before analysis of the distributed comm
	// schedule: every conflicting cross-processor pair with its verdict
	// plus the deadlock findings. nil for sequential compilations and
	// under Options.NoRace. A compilation only succeeds when the result
	// is free of races and deadlocks.
	Races *mhp.Result
}

// Compile runs the full pipeline on ZA source text.
func Compile(src string, opt Options) (*Compilation, error) {
	return CompileCtx(context.Background(), src, opt)
}

// CompileCtx is Compile with cancellation: the context is consulted
// between pipeline phases, so a cancelled or expired request stops
// compiling promptly and returns ctx.Err() (errors.Is-testable for
// context.DeadlineExceeded).
func CompileCtx(ctx context.Context, src string, opt Options) (*Compilation, error) {
	airProg, info, err := FrontEnd(ctx, src, opt.Configs, opt.Hooks)
	if err != nil {
		return nil, err
	}
	return finishAIR(ctx, airProg, info, opt)
}

// FrontEnd is the pipeline's front half, parse → sema → lower, for
// tools that plan or analyze the AIR themselves (the tuner, the
// linter, the compiler emulations). configs overrides config constants
// by name; the context is consulted between phases.
func FrontEnd(ctx context.Context, src string, configs map[string]int64, h Hooks) (*air.Program, *sema.Info, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	var errs source.ErrorList
	h.begin("parse")
	prog := parser.Parse(src, &errs)
	h.done("parse")
	if errs.HasErrors() {
		return nil, nil, errs.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	h.begin("sema")
	info := sema.Check(prog, configs, &errs)
	h.done("sema")
	if errs.HasErrors() {
		return nil, nil, errs.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	h.begin("lower")
	airProg := lower.Lower(info, &errs)
	h.done("lower")
	if errs.HasErrors() {
		return nil, nil, errs.Err()
	}
	return airProg, info, nil
}

// Distribute inserts communication into prog when co asks for more
// than one processor and returns the planner configuration that
// follows from it; a nil or single-processor co leaves prog alone.
func Distribute(prog *air.Program, co *comm.Options, h Hooks) (*comm.Result, core.Config) {
	cfg := core.Config{PhaseStart: h.PhaseStart, PhaseEnd: h.PhaseEnd}
	if co == nil || co.Procs <= 1 {
		return nil, cfg
	}
	h.begin("comm")
	res := comm.Insert(prog, *co)
	h.done("comm")
	// Distributed arrays cannot host realigned temporaries (the
	// shifted temp would itself need communication).
	cfg.DisableRealign = true
	if co.Strategy == comm.FavorComm {
		cfg.SegmentFn = comm.Segments
	}
	return res, cfg
}

// CompileAIR runs the pipeline tail — verification, communication
// insertion, fusion/contraction planning, scalarization, and the
// bounds prover — on an already-built AIR program, the programmatic
// front door used by the lazy runtime (package zpl / internal/lazy).
// There is no source text and no sema.Info: Compilation.Info is nil,
// positions on diagnostics and remarks are the zero Pos (rendered
// "-"), and Options.Configs is ignored (a programmatic program has
// concrete regions already).
//
// The planner rewrites the program in place (temporary realignment,
// contraction marks), so CompileAIR takes ownership of prog: build a
// fresh instance per call and do not reuse it afterwards.
func CompileAIR(ctx context.Context, prog *air.Program, opt Options) (*Compilation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return finishAIR(ctx, prog, nil, opt)
}

// finishAIR is the shared pipeline tail following lowering (or a
// programmatic AIR build): check → comm → plan → scalarize → prove.
func finishAIR(ctx context.Context, airProg *air.Program, info *sema.Info, opt Options) (*Compilation, error) {
	h := opt.Hooks
	if opt.Check {
		h.begin("check")
		err := check.Err(check.AIRWellFormed(airProg))
		h.done("check")
		if err != nil {
			return nil, fmt.Errorf("driver: after lowering: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	commRes, cfg := Distribute(airProg, opt.Comm, h)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var plan *core.Plan
	if opt.Plan != nil {
		var err2 error
		plan, err2 = core.ApplySpec(airProg, opt.Plan, cfg)
		if err2 != nil {
			return nil, fmt.Errorf("driver: %w", err2)
		}
	} else {
		plan = core.ApplyEx(airProg, opt.Level, cfg)
	}
	if opt.Check {
		h.begin("check")
		var reps []check.Report
		// Re-verify well-formedness too: comm insertion and temporary
		// realignment both rewrote the AIR since the last look.
		reps = append(reps, check.AIRWellFormed(airProg)...)
		reps = append(reps, check.ASDGCrossCheck(airProg, plan)...)
		reps = append(reps, check.FusionLegality(airProg, plan)...)
		reps = append(reps, check.ContractionSafety(airProg, plan)...)
		err := check.Err(reps)
		h.done("check")
		if err != nil {
			return nil, fmt.Errorf("driver: after planning: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	h.begin("scalarize")
	lirProg, err := scalarize.Scalarize(airProg, plan)
	if err != nil {
		h.done("scalarize")
		return nil, fmt.Errorf("driver: %w", err)
	}
	if opt.ScalarReplace {
		scalarize.ScalarReplace(lirProg)
	}
	h.done("scalarize")
	if opt.Check {
		h.begin("check")
		err := check.Err(check.CommSchedule(airProg, lirProg, commRes != nil))
		h.done("check")
		if err != nil {
			return nil, fmt.Errorf("driver: after scalarization: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var bounds *absint.Result
	if !opt.NoProve {
		h.begin("prove")
		bounds = absint.AnalyzeOpts(lirProg, absint.Options{FaultSite: opt.ProveFault})
		h.done("prove")
		if err := bounds.Err(); err != nil {
			return nil, fmt.Errorf("driver: bounds: %w", err)
		}
		if opt.Check {
			h.begin("check")
			err := check.Err(check.Bounds(lirProg, bounds))
			h.done("check")
			if err != nil {
				return nil, fmt.Errorf("driver: after proving: %w", err)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	var races *mhp.Result
	if opt.Comm != nil && opt.Comm.Procs > 1 && !opt.NoRace {
		h.begin("race")
		races = mhp.Analyze(mhp.BuildSchedule(lirProg, opt.Comm.Procs))
		h.done("race")
		if err := races.Err(); err != nil {
			return nil, fmt.Errorf("driver: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return &Compilation{Info: info, AIR: airProg, Plan: plan, LIR: lirProg, Comm: commRes, Bounds: bounds, Races: races}, nil
}

// Run executes the compiled program on the VM. The prover's result
// rides along unless the caller supplied its own Options.Bounds; the VM
// reads only a seeded fault from it (-provefault).
func (c *Compilation) Run(opt vm.Options) (*vm.Machine, *vm.Result, error) {
	if opt.Bounds == nil && c.Bounds != nil {
		opt.Bounds = c.Bounds
	}
	return vm.Run(c.LIR, opt)
}

// MustCompile panics on error; for tests and examples.
func MustCompile(src string, opt Options) *Compilation {
	c, err := Compile(src, opt)
	if err != nil {
		panic(err)
	}
	return c
}
