// Package zpl is the library face of the compiler: a lazy array
// runtime that lets Go programs build ZPL-style array computations as
// data — element-wise assignments over regions, shifted stencil reads,
// scalar broadcasts, reductions — and have the §5.4 fusion/contraction
// ladder compile them at sync points.
//
// Nothing executes while operations are recorded. At a sync point
// (Context.Eval, or reading any value back) the pending operations are
// partitioned into batches, canonicalized modulo handle naming, and
// compiled through the same pipeline as ZA source text; the canonical
// form is the content address in a compilation cache, so the steady
// state of an iterative solver — including double-buffer handle swaps —
// compiles exactly once and then replays the cached artifact on either
// the bytecode VM or a natively built binary.
//
// Quickstart — a Jacobi relaxation step, fused and cached:
//
//	ctx := zpl.New(zpl.Config{Level: core.C2F4S, Out: os.Stdout})
//	R := zpl.R(1, n, 1, n)
//	inner := zpl.R(2, n-1, 2, n-1)
//	cur := ctx.Array("cur", R)
//	nxt := ctx.Array("nxt", R)
//	res := ctx.Scalar("res", 0)
//	for {
//		nxt.Assign(inner, zpl.Mul(zpl.Const(0.25),
//			zpl.Add(zpl.Add(cur.At(-1, 0), cur.At(1, 0)),
//				zpl.Add(cur.At(0, -1), cur.At(0, 1)))))
//		res.MaxOf(inner, zpl.Abs(zpl.Sub(nxt, cur)))
//		cur, nxt = nxt, cur
//		r, err := res.Value() // sync point: fuse, compile-or-hit, run
//		if err != nil || r < 1e-6 {
//			break
//		}
//	}
//
// Array handles are observable (readable after any Eval), so their
// storage always survives compilation; Context.Temp declares an
// intermediate whose value is never read back between Evals, which is
// the promise that lets the contraction phase eliminate its storage —
// the paper's payoff, available to library callers.
//
// On BackendGo each cached compilation keeps one worker process: a
// natively built binary that stays resident and shares its arrays with
// the Context through a memory mapping. An array's values live in that
// mapping between Evals, so that an Eval costs the kernel and a pipe
// round trip, plus copies of what the batch's dead-in rule leaves
// (Jacobi's frame), rather than a process start and the grids in and
// out. Context.Close stops every worker, moving the values it held back
// to the Go heap; the Context stays usable and starts them again as
// Evals need them. A Context dropped without Close has its
// workers stopped when the garbage collector finds it unreachable, and a
// worker exits by itself when its host process does.
//
// Context.Eval (and every read-back, which is an Eval) returns errors and
// does not panic: a panic inside the compiler, the emitter or a native
// build comes back as an error that names the batch by its content
// address and carries the panic's value and stack. That error is not
// sticky — the Eval's pending operations are dropped, the Context stays
// usable, and the next Eval of the same shape runs a fresh compile.
//
// The types here are aliases of package internal/lazy's; the methods
// on Array, Scalar, and Context are documented there.
package zpl

import (
	"repro/internal/ccache"
	"repro/internal/driver"
	"repro/internal/lazy"
	"repro/internal/remark"
	"repro/internal/sema"
)

// Context owns handles, pending operations, compiled batches and (on
// BackendGo) their worker processes, which Close stops; one goroutine
// per Context.
type Context = lazy.Engine

// Array is a handle to a deferred array with host-side storage
// between Evals.
type Array = lazy.Handle

// Scalar is a handle to a deferred scalar.
type Scalar = lazy.ScalarHandle

// Expr is a deferred element-wise expression. Array and Scalar are
// themselves expressions (an Array reads at offset zero).
type Expr = lazy.Expr

// Region is a rectangular index set, bounds inclusive.
type Region = sema.Region

// Backend names an execution engine for Config.Backend.
type Backend = driver.Backend

// Execution backends: the bytecode VM (default) and natively built
// binaries.
const (
	BackendVM = driver.BackendVM
	BackendGo = driver.BackendGo
)

// CacheStats reports the compilation cache's counters (see
// Context.CacheStats); a steady-state workload shows Hits growing and
// Misses flat.
type CacheStats = ccache.Stats

// Remark is one optimization remark (fused/contracted and their
// diagnosed negatives) from the most recent Eval.
type Remark = remark.Remark

// Config configures a Context.
type Config = lazy.Options

// New creates a Context.
func New(cfg Config) *Context { return lazy.NewEngine(cfg) }

// R builds a region literal from lo,hi bound pairs: R(1, n) is
// [1..n], R(1, n, 1, m) is [1..n, 1..m]. It panics on a malformed
// bounds list.
func R(bounds ...int) *Region { return lazy.R(bounds...) }

// Const is a numeric constant expression.
func Const(v float64) Expr { return lazy.Const(v) }

// Index is the current iteration index along dimension dim (1-based).
func Index(dim int) Expr { return lazy.Index(dim) }

// Add is x + y.
func Add(x, y Expr) Expr { return lazy.Add(x, y) }

// Sub is x - y.
func Sub(x, y Expr) Expr { return lazy.Sub(x, y) }

// Mul is x * y.
func Mul(x, y Expr) Expr { return lazy.Mul(x, y) }

// Div is x / y.
func Div(x, y Expr) Expr { return lazy.Div(x, y) }

// Pow is x raised to y.
func Pow(x, y Expr) Expr { return lazy.Pow(x, y) }

// Neg is -x.
func Neg(x Expr) Expr { return lazy.Neg(x) }

// Sqrt is sqrt(x).
func Sqrt(x Expr) Expr { return lazy.Sqrt(x) }

// Abs is abs(x).
func Abs(x Expr) Expr { return lazy.Abs(x) }

// Min is the element-wise minimum of x and y.
func Min(x, y Expr) Expr { return lazy.Min(x, y) }

// Max is the element-wise maximum of x and y.
func Max(x, y Expr) Expr { return lazy.Max(x, y) }

// Call applies a builtin math function element-wise (sqrt, exp, log,
// sin, cos, tan, abs, floor, ceil, min, max, pow, mod, atan2, sign).
func Call(name string, args ...Expr) Expr { return lazy.Call(name, args...) }
