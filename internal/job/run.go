package job

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/backend"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/gogen"
	"repro/internal/machine"
	"repro/internal/vm"
)

// Class is what went wrong with a request, as every front end reports
// it.
type Class int

const (
	ClassOK Class = iota
	ClassRuntime
	ClassUsage
	ClassCompile
	ClassTimeout
	ClassCanceled
	ClassInternal
)

// classes is the one table from failure class to CLI exit code and to
// zpld's HTTP status and error kind.
var classes = [...]struct {
	exit, status int
	kind         string
}{
	ClassOK:       {0, 200, ""},
	ClassRuntime:  {1, 500, "runtime_error"}, // execution fault, budget exhaustion, native trap
	ClassUsage:    {2, 400, "bad_request"},   // illegal Spec, no go toolchain for backend go
	ClassCompile:  {3, 422, "compile_error"}, // parse/sema/verifier failure, go build failure of emitted code
	ClassTimeout:  {4, 504, "timeout"},       // the deadline expired: compiling, building, or running
	ClassCanceled: {1, 499, "canceled"},      // the client went away (nginx's convention)
	ClassInternal: {1, 500, "internal"},      // a panic in the compiler or an executor: this program's bug, not the request's
}

func (c Class) ExitCode() int   { return classes[c].exit }
func (c Class) HTTPStatus() int { return classes[c].status }
func (c Class) Kind() string    { return classes[c].kind }

// CompileError marks a failure of the program itself (parse, sema,
// lowering, verifier, emission) as opposed to a failure of running it.
type CompileError struct{ Err error }

func (e *CompileError) Error() string { return e.Err.Error() }
func (e *CompileError) Unwrap() error { return e.Err }

// Classify maps an error from any stage of a request to its class. A
// panic (a *flight.PanicError, which is also what the callers that joined
// the panicking flight receive) wins over everything; then a context
// error wins over whatever wraps it.
func Classify(err error) Class {
	var ue *UsageError
	var ce *CompileError
	var be *backend.BuildError
	var pe *flight.PanicError
	switch {
	case err == nil:
		return ClassOK
	case errors.As(err, &pe):
		return ClassInternal
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	case errors.As(err, &ue):
		return ClassUsage
	case errors.As(err, &ce), errors.As(err, &be):
		return ClassCompile
	}
	return ClassRuntime
}

// Compile is driver.CompileCtx with its failures typed as compile
// errors.
func Compile(ctx context.Context, src string, opt driver.Options) (*driver.Compilation, error) {
	c, err := driver.CompileCtx(ctx, src, opt)
	if err != nil {
		return nil, &CompileError{err}
	}
	return c, nil
}

// RunSpec says how to execute a compilation.
type RunSpec struct {
	Backend  driver.Backend
	Dist     bool           // distributed interpreter over Procs processors
	Procs    int            // also the processor count a traced run is priced for
	MaxSteps int64          // interpreter budget; 0 = default
	Model    *machine.Model // price a traced sequential VM run
	// GoSrc is the already-emitted native program, when the caller
	// holds one (zpld entries carry it across tiers where the proofs do
	// not travel); "" emits from the compilation and its proofs.
	GoSrc string
}

// Result reports one execution.
type Result struct {
	Steps       int64 // interpreted runs; summed over processors when distributed
	MemoryBytes int64 // array storage; halos included when distributed
	Wall        time.Duration
	Cost        *machine.CostTracer // traced runs only
	Traffic     *distvm.Traffic     // distributed runs only: what the processors exchanged

	// Native runs only.
	Art       *backend.Artifact
	BuildWall time.Duration // artifact lookup or toolchain run
	Compute   time.Duration // the binary's self-timed main
}

// Build ensures the native binary of c exists in store (nil = the
// default store). Emission failures are compile errors, as are the
// *backend.BuildError toolchain failures.
func Build(ctx context.Context, c *driver.Compilation, goSrc string, store *backend.Store) (*backend.Artifact, error) {
	var err error
	if store == nil {
		if store, err = backend.Open(""); err != nil {
			return nil, err
		}
	}
	if goSrc == "" {
		if goSrc, err = gogen.EmitBounds(c.LIR, c.Bounds); err != nil {
			return nil, &CompileError{err}
		}
	}
	return store.Build(ctx, goSrc)
}

// Run executes c as rs asks, writing the program's output to out. The
// interpreters go through Compilation.Run's proof-carrying dispatch
// (a compilation without proofs — NoProve, or rehydrated from a tier
// they do not travel through — stays checked). The Result is non-nil
// even on error: Wall is how long the failed execution took.
func Run(ctx context.Context, c *driver.Compilation, rs RunSpec, out io.Writer, store *backend.Store) (*Result, error) {
	res := &Result{}
	var t0 time.Time
	defer func() { res.Wall = time.Since(t0) }()

	switch {
	case rs.Backend.Native():
		t0 = time.Now()
		art, err := Build(ctx, c, rs.GoSrc, store)
		res.BuildWall = time.Since(t0)
		t0 = time.Now()
		if err != nil {
			return res, err
		}
		res.Art = art
		stats, err := art.Run(ctx, out)
		if err != nil {
			return res, err
		}
		res.Compute = stats.Compute

	case rs.Dist:
		t0 = time.Now()
		dm, err := distvm.Run(c.LIR, distvm.Options{Procs: rs.Procs, Out: out, MaxSteps: rs.MaxSteps, Ctx: ctx})
		if err != nil {
			return res, err
		}
		if err := dm.ScalarsConsistent(); err != nil {
			return res, fmt.Errorf("replicated-scalar invariant violated: %w", err)
		}
		tr := dm.Traffic()
		res.Steps, res.MemoryBytes, res.Traffic = dm.Steps(), dm.MemoryFootprint(), &tr

	default:
		opt := vm.Options{Out: out, MaxSteps: rs.MaxSteps, Ctx: ctx}
		if rs.Model != nil {
			res.Cost = machine.NewCostTracer(*rs.Model, rs.Procs)
			opt.Tracer = res.Cost
		}
		t0 = time.Now()
		m, r, err := c.Run(opt)
		if err != nil {
			return res, err
		}
		res.Steps, res.MemoryBytes = r.Steps, m.MemoryFootprint()
	}
	return res, nil
}
