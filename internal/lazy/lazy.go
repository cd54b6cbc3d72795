// Package lazy is the deferred-evaluation array runtime behind the
// public package zpl: callers allocate array and scalar handles, issue
// element-wise assignments, reductions, and writelns, and nothing
// executes until a sync point (Eval, or reading a value back) forces
// the pending operation DAG.
//
// At a sync point one walk over the pending operations cuts them into
// batches, checks that every Temp is written before it is read, and
// notes which Temps a later batch reads. Each batch is then encoded
// once, in issue order, as canon.go's shape: integer words, handles
// numbered by first appearance. A shape seen before, confirmed word for
// word, names its cache key and its handle-to-canonical-name binding at
// once: the steady state of an iterative solver, including
// double-buffer handle swaps and a fresh Temp every sweep, runs without
// canonicalizing. Only a new shape is canonicalized — a
// dependence-respecting topological order with structural tie-breaking,
// encoded again in that order, which names handles v0,v1,... and
// scalars s0,s1,... by first appearance. Those canonical words are the
// batch's content address in the compilation cache
// (ccache.ArtifactLazy), so reissuing independent operations in
// another order still finds the compiled artifact. A miss compiles the
// canonical AIR program through the existing pipeline
// (driver.CompileAIR: fusion, contraction, scalarization, bounds
// proving); a hit runs no compiler phase. Handle state is bound to
// canonical names per execution: the VM path seeds the storage of a
// machine kept resident beside the cached compilation, the native path
// the state mapping of a worker process kept the same way
// (backend.Worker), which Engine.Close stops.
//
// Arrays observable through a handle are marked air.ArrayInfo.Escapes,
// which keeps the contraction phase from eliminating storage the
// caller can read back; Temp handles make the opposite promise (no
// readback between Evals) and are therefore contraction candidates —
// the whole point of issuing a multi-statement formula lazily.
//
// Engines are safe for concurrent use: every public operation —
// recording, sync points, read-backs — holds an engine-level mutex, so
// concurrent operations are serialized atomically (a read-back observes
// either all or none of another goroutine's pending recordings, and
// exactly one of two racing Evals compiles the pending DAG). The
// *order* in which unsynchronized goroutines record is, as always,
// theirs to define; callers wanting a deterministic program order must
// still coordinate who records first.
package lazy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/air"
	"repro/internal/backend"
	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/remark"
	"repro/internal/sema"
)

// Options configures an Engine.
type Options struct {
	// Level is the fusion/contraction ladder level batches compile at;
	// the zero value is core.Baseline (compile every statement as its
	// own loop nest). Iterative workloads want core.C2F4S.
	Level core.Level
	// Backend selects the execution engine: driver.BackendVM (default)
	// interprets batches, driver.BackendGo builds native binaries in a
	// content-addressed artifact store.
	Backend driver.Backend
	// Out receives writeln output; nil discards it.
	Out io.Writer
	// CacheBytes bounds the compilation cache; <= 0 is unbounded.
	CacheBytes int64
	// ArtifactDir overrides the native artifact store location
	// (BackendGo only); "" uses backend.DefaultDir.
	ArtifactDir string
	// MaxBatchOps splits a sync point's pending operations into
	// batches of at most this many operations; <= 0 batches the whole
	// DAG together (barriers still split).
	MaxBatchOps int
	// Check runs the static AIR/plan verifier on every compiled batch.
	Check bool
	// ScalarReplace enables scalar replacement in generated nests.
	ScalarReplace bool
	// NoProve disables the bounds prover (keeps every runtime check).
	NoProve bool
}

// Stats counts an engine's activity. Compilation-cache behavior is
// reported separately by CacheStats.
type Stats struct {
	Evals   int64 // sync points that found pending work
	Batches int64 // batches executed (>= Evals)
	Ops     int64 // operations recorded
}

// Engine owns handles, the pending operation list, the compilation
// cache, and (for the native backend) the artifact store.
type Engine struct {
	// mu serializes every public operation; see the package comment.
	mu sync.Mutex

	opt   Options
	out   io.Writer
	cache *ccache.Cache
	store *backend.Store

	nextArray  int
	nextScalar int
	seq        int
	pending    []*op
	err        error

	// lastRead maps every Temp written so far in the Eval in progress to
	// the last batch that reads it (-1: none), and tempState holds the
	// values of Temps a later batch reads. Both are cleared when the
	// Eval finishes.
	lastRead  map[*Handle]int
	tempState map[*Handle][]float64

	// shape is the scratch fingerprint of the batch being run and bound
	// the scratch binding of a memo hit; memo maps fingerprints to
	// canonicalizations and resident holds the machines (VM) and worker
	// processes (native) of cached compilations. Both hold only keys the
	// cache holds.
	shape    shape
	bound    canonBatch
	memo     memo
	resident map[ccache.Key]*resident

	// plans are the compiled plans of the most recent Eval's batches,
	// in batch order; Remarks renders them.
	plans []*core.Plan
	stats Stats

	// compileHook, set by tests only, runs first in a batch's compile:
	// the seam for a compiler that panics. emitHook, also set by tests
	// only, rewrites a native batch's emitted source before it is built:
	// the seam for a program that traps.
	compileHook func()
	emitHook    func(goSrc string) string
	// memoHits counts batches that skipped canonicalization,
	// machineBuilds the vm.New calls and workerStarts the native workers
	// started; tests read them.
	memoHits, machineBuilds, workerStarts int64
}

// NewEngine creates an engine. A native-backend engine opens its
// artifact store lazily at the first Eval, so constructing one on a
// host without a toolchain is not itself an error.
func NewEngine(opt Options) *Engine {
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	return &Engine{
		opt:       opt,
		out:       out,
		cache:     ccache.New(opt.CacheBytes),
		lastRead:  map[*Handle]int{},
		tempState: map[*Handle][]float64{},
		memo:      memo{hash: hashWords},
		resident:  map[ccache.Key]*resident{},
	}
}

// fail records the first deferred error; later recordings are no-ops.
func (e *Engine) fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
		e.pending = nil
	}
}

// Err returns the engine's sticky deferred error, if any. Recording
// after an error is a no-op; Eval and every read-back surface it.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// R builds an inline region literal from lo,hi bound pairs:
// R(1, n) is [1..n], R(1, n, 1, m) is [1..n, 1..m]. It panics on a
// malformed bounds list — a programming error, like a bad slice index.
func R(bounds ...int) *sema.Region {
	if len(bounds) == 0 || len(bounds)%2 != 0 {
		panic(fmt.Sprintf("lazy.R: %d bounds, want lo,hi pairs", len(bounds)))
	}
	rank := len(bounds) / 2
	if rank > sema.MaxRank {
		panic(fmt.Sprintf("lazy.R: rank %d exceeds max %d", rank, sema.MaxRank))
	}
	r := &sema.Region{Lo: make([]int, rank), Hi: make([]int, rank)}
	for i := 0; i < rank; i++ {
		r.Lo[i], r.Hi[i] = bounds[2*i], bounds[2*i+1]
		if r.Lo[i] > r.Hi[i] {
			panic(fmt.Sprintf("lazy.R: empty dimension %d..%d", r.Lo[i], r.Hi[i]))
		}
	}
	return r
}

// cloneRegion copies a region without its name, so canonical programs
// never embed caller-chosen region names.
func cloneRegion(r *sema.Region) *sema.Region {
	c := &sema.Region{Lo: make([]int, r.Rank()), Hi: make([]int, r.Rank())}
	copy(c.Lo, r.Lo)
	copy(c.Hi, r.Hi)
	return c
}

// regionWithin reports whether inner is contained in outer.
func regionWithin(inner, outer *sema.Region) bool {
	if inner.Rank() != outer.Rank() {
		return false
	}
	for i := range inner.Lo {
		if inner.Lo[i] < outer.Lo[i] || inner.Hi[i] > outer.Hi[i] {
			return false
		}
	}
	return true
}

// Handle is a deferred array: a declared region plus (for non-Temp
// handles) host-side storage holding the array's value between Evals,
// row-major over the declared region.
type Handle struct {
	eng    *Engine
	name   string
	region *sema.Region
	temp   bool
	data   []float64
}

// Array allocates an array handle over region r, initially zero. The
// name is for diagnostics only; it never reaches a fingerprint. The
// array's final value is always observable through the handle, so it
// is live at every Eval's exit and never a contraction candidate.
func (e *Engine) Array(name string, r *sema.Region) *Handle {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.newHandle(name, r, false)
}

// Temp allocates a discardable intermediate: its value is not
// observable between Evals (Values on it is an error), which is the
// promise that lets the contraction phase eliminate its storage
// entirely. A Temp read before it is written within one Eval is a
// deferred error — there is no prior value to read.
func (e *Engine) Temp(name string, r *sema.Region) *Handle {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.newHandle(name, r, true)
}

func (e *Engine) newHandle(name string, r *sema.Region, temp bool) *Handle {
	if e.err != nil {
		return &Handle{eng: e, name: name, region: R(1, 1), temp: temp}
	}
	if r == nil || r.Rank() == 0 || r.Rank() > sema.MaxRank {
		e.fail(fmt.Errorf("lazy: array %q needs a region of rank 1..%d", name, sema.MaxRank))
		return &Handle{eng: e, name: name, region: R(1, 1), temp: temp}
	}
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			e.fail(fmt.Errorf("lazy: array %q has empty dimension %d..%d", name, r.Lo[i], r.Hi[i]))
			return &Handle{eng: e, name: name, region: R(1, 1), temp: temp}
		}
	}
	if name == "" {
		name = fmt.Sprintf("a%d", e.nextArray)
	}
	e.nextArray++
	return &Handle{eng: e, name: name, region: cloneRegion(r), temp: temp}
}

// Name returns the handle's diagnostic name.
func (h *Handle) Name() string { return h.name }

// Region returns a copy of the handle's declared region.
func (h *Handle) Region() *sema.Region { return cloneRegion(h.region) }

// At reads the array at a constant offset from the statement's current
// index — the lazy spelling of ZPL's A@direction.
func (h *Handle) At(off ...int) Expr {
	o := make([]int, len(off))
	copy(o, off)
	return &refExpr{h: h, off: o}
}

// hostData returns (allocating on demand) the handle's between-Evals
// storage. Temp handles have none; callers guard.
func (h *Handle) hostData() []float64 {
	if h.data == nil {
		h.data = make([]float64, h.region.Size())
	}
	return h.data
}

// ScalarHandle is a deferred scalar; its host value persists between
// Evals and seeds every batch that reads it.
type ScalarHandle struct {
	eng  *Engine
	name string
	val  float64
}

// Scalar allocates a scalar handle with an initial value.
func (e *Engine) Scalar(name string, init float64) *ScalarHandle {
	e.mu.Lock()
	defer e.mu.Unlock()
	if name == "" {
		name = fmt.Sprintf("x%d", e.nextScalar)
	}
	e.nextScalar++
	return &ScalarHandle{eng: e, name: name, val: init}
}

// Name returns the scalar's diagnostic name.
func (s *ScalarHandle) Name() string { return s.name }

// ---------------------------------------------------------------------------
// Operation recording

type opKind int

const (
	opAssign opKind = iota
	opReduce
	opWriteln
	opBarrier
)

// warg is one writeln argument: a string literal or a scalar expression.
type warg struct {
	str   string
	e     Expr
	isStr bool
}

// op is one recorded deferred operation.
type op struct {
	kind    opKind
	seq     int
	target  *Handle      // opAssign
	region  *sema.Region // opAssign/opReduce iteration region
	rhs     Expr         // opAssign/opReduce
	starget *ScalarHandle
	rop     air.ReduceOp
	wargs   []warg
}

// Assign records [r] h := rhs: every element of r gets the expression
// evaluated at its index, reads seeing the pre-statement values
// (parallel array-statement semantics, exactly ZA's). r == nil assigns
// the handle's whole declared region; otherwise r must lie within it —
// elements outside the declared region are not observable through the
// handle, so writing them would be silent data loss.
func (h *Handle) Assign(r *sema.Region, rhs Expr) {
	e := h.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	if r == nil {
		r = h.region
	}
	if !regionWithin(r, h.region) {
		e.fail(fmt.Errorf("lazy: assign region %s outside %s's declared region %s",
			r, h.name, h.region))
		return
	}
	if err := checkExpr(rhs, e, r.Rank()); err != nil {
		e.fail(fmt.Errorf("%w (assigning %s)", err, h.name))
		return
	}
	e.record(&op{kind: opAssign, target: h, region: cloneRegion(r), rhs: rhs})
}

// Reduce records s := op<< [r] body: the reduction of the element-wise
// body over region r into the scalar.
func (s *ScalarHandle) Reduce(rop air.ReduceOp, r *sema.Region, body Expr) {
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	if r == nil || r.Rank() == 0 {
		e.fail(fmt.Errorf("lazy: reduction into %s needs a region", s.name))
		return
	}
	if err := checkExpr(body, e, r.Rank()); err != nil {
		e.fail(fmt.Errorf("%w (reducing into %s)", err, s.name))
		return
	}
	e.record(&op{kind: opReduce, starget: s, rop: rop, region: cloneRegion(r), rhs: body})
}

// Sum records s := +<< [r] body.
func (s *ScalarHandle) Sum(r *sema.Region, body Expr) { s.Reduce(air.ReduceSum, r, body) }

// Prod records s := *<< [r] body.
func (s *ScalarHandle) Prod(r *sema.Region, body Expr) { s.Reduce(air.ReduceProd, r, body) }

// MaxOf records s := max<< [r] body.
func (s *ScalarHandle) MaxOf(r *sema.Region, body Expr) { s.Reduce(air.ReduceMax, r, body) }

// MinOf records s := min<< [r] body.
func (s *ScalarHandle) MinOf(r *sema.Region, body Expr) { s.Reduce(air.ReduceMin, r, body) }

// Writeln records a print of string literals and scalar expressions,
// in order, to the engine's Out — space-separated, %g-formatted,
// newline-terminated, byte-identical to ZA's writeln on either
// backend. Accepted arguments: string, *ScalarHandle, Expr without
// array reads, and numeric values (int, float64).
func (e *Engine) Writeln(args ...interface{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	ws := make([]warg, 0, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case string:
			ws = append(ws, warg{str: x, isStr: true})
		case int:
			ws = append(ws, warg{e: Const(float64(x))})
		case float64:
			ws = append(ws, warg{e: Const(x)})
		case Expr:
			if err := checkExpr(x, e, 0); err != nil {
				e.fail(fmt.Errorf("%w (writeln argument %d)", err, i+1))
				return
			}
			ws = append(ws, warg{e: x})
		default:
			e.fail(fmt.Errorf("lazy: writeln argument %d has unsupported type %T", i+1, a))
			return
		}
	}
	e.record(&op{kind: opWriteln, wargs: ws})
}

// Barrier forces a batch boundary at this point in the pending
// operations: operations before and after it never compile into one
// program. Mostly useful for carving measurement windows; fusion
// across the boundary is forgone.
func (e *Engine) Barrier() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	e.record(&op{kind: opBarrier})
}

func (e *Engine) record(o *op) {
	o.seq = e.seq
	e.seq++
	if o.kind != opBarrier {
		e.stats.Ops++
	}
	e.pending = append(e.pending, o)
}

// ---------------------------------------------------------------------------
// Sync points

// Eval forces every pending operation: the sync point at which the
// engine fuses, compiles (or cache-hits), and executes the deferred
// DAG. After a successful Eval all non-Temp handles and all scalars
// hold their updated values. A panic inside the compiler, the emitter or
// a native build is returned as an error that names the batch by its
// content address and wraps a *flight.PanicError (value and stack);
// unlike a program's own error it is not sticky: the pending operations
// of this Eval are dropped, handles keep the values they had, and the
// next Eval of the same shape runs a fresh compile.
func (e *Engine) Eval() error { return e.EvalCtx(context.Background()) }

// EvalCtx is Eval with cancellation, consulted between pipeline phases
// and during execution.
func (e *Engine) EvalCtx(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evalLocked(ctx)
}

// evalLocked is the sync-point body; callers hold e.mu. Read-backs
// enter here directly so handle methods force pending work under the
// same critical section that copies the values out.
func (e *Engine) evalLocked(ctx context.Context) error {
	if e.err != nil {
		return e.err
	}
	if len(e.pending) == 0 {
		return nil
	}
	pending := e.pending
	e.pending = nil
	e.plans = e.plans[:0]
	defer func() {
		// Temp values never survive a sync point, successful or not.
		clear(e.lastRead)
		clear(e.tempState)
	}()

	batches, err := e.partition(pending)
	if err != nil {
		e.fail(err)
		return e.err
	}
	e.stats.Evals++
	for i, b := range batches {
		if err := e.runBatch(ctx, b, i); err != nil {
			var pe *flight.PanicError
			if errors.As(err, &pe) {
				// Our fault, not the recorded program's: this Eval's
				// operations are lost, the engine is not.
				return err
			}
			e.fail(err)
			return e.err
		}
		e.stats.Batches++
	}
	return nil
}

// partition is the one walk over an Eval's pending operations. It cuts
// them into batches at barriers and, when MaxBatchOps > 0, after every
// MaxBatchOps operations; batches preserve issue order, and
// canonicalization reorders only within one. On the way it holds Temps
// to their contract in issue order — a Temp read must follow a write to
// it within the Eval, since Temps hold no value across sync points — and
// records in e.lastRead the last batch that reads each Temp. A Temp
// escapes batch i, its value outliving the batch, exactly when that
// last batch is after i; Temps confined to one batch are the
// contraction candidates.
func (e *Engine) partition(ops []*op) ([][]*op, error) {
	var batches [][]*op
	var err error
	start := 0
	for i, o := range ops {
		if o.kind == opBarrier {
			if i > start {
				batches = append(batches, ops[start:i])
			}
			start = i + 1
			continue
		}
		// Writeln arguments read no array (checkExpr), so only the
		// right-hand side can read a Temp.
		batch := len(batches)
		walkExpr(o.rhs, func(x Expr) {
			var h *Handle
			switch n := x.(type) {
			case *refExpr:
				h = n.h
			case *Handle:
				h = n
			}
			if h == nil || !h.temp || err != nil {
				return
			}
			if _, written := e.lastRead[h]; !written {
				err = fmt.Errorf("lazy: temp %s read before any write in this eval (temps hold no value across sync points)", h.name)
				return
			}
			e.lastRead[h] = batch
		})
		if err != nil {
			return nil, err
		}
		if o.kind == opAssign && o.target.temp {
			if _, written := e.lastRead[o.target]; !written {
				e.lastRead[o.target] = -1
			}
		}
		if max := e.opt.MaxBatchOps; max > 0 && i+1-start >= max {
			batches = append(batches, ops[start:i+1])
			start = i + 1
		}
	}
	if start < len(ops) {
		batches = append(batches, ops[start:])
	}
	return batches, nil
}

// Values syncs and returns a copy of the handle's current contents,
// row-major over its declared region.
func (h *Handle) Values() ([]float64, error) {
	if h.temp {
		return nil, fmt.Errorf("lazy: temp %s holds no value between evals", h.name)
	}
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	if err := h.eng.evalLocked(context.Background()); err != nil {
		return nil, err
	}
	out := make([]float64, h.region.Size())
	copy(out, h.hostData())
	return out, nil
}

// SetValues syncs pending work (which may still read the old value)
// and then overwrites the handle's contents, row-major over its
// declared region.
func (h *Handle) SetValues(v []float64) error {
	if h.temp {
		return fmt.Errorf("lazy: temp %s holds no value between evals", h.name)
	}
	if len(v) != h.region.Size() {
		return fmt.Errorf("lazy: SetValues on %s: %d values, region %s holds %d",
			h.name, len(v), h.region, h.region.Size())
	}
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	if err := h.eng.evalLocked(context.Background()); err != nil {
		return err
	}
	copy(h.hostData(), v)
	return nil
}

// Value syncs and reads one element at a logical index.
func (h *Handle) Value(idx ...int) (float64, error) {
	if h.temp {
		return 0, fmt.Errorf("lazy: temp %s holds no value between evals", h.name)
	}
	if len(idx) != h.region.Rank() {
		return 0, fmt.Errorf("lazy: Value on %s: %d indices, rank %d", h.name, len(idx), h.region.Rank())
	}
	pos := 0
	for d, i := range idx {
		if i < h.region.Lo[d] || i > h.region.Hi[d] {
			return 0, fmt.Errorf("lazy: Value on %s: index %d out of %d..%d",
				h.name, i, h.region.Lo[d], h.region.Hi[d])
		}
		pos = pos*h.region.Extent(d) + (i - h.region.Lo[d])
	}
	h.eng.mu.Lock()
	defer h.eng.mu.Unlock()
	if err := h.eng.evalLocked(context.Background()); err != nil {
		return 0, err
	}
	return h.hostData()[pos], nil
}

// Value syncs and returns the scalar's current value.
func (s *ScalarHandle) Value() (float64, error) {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	if err := s.eng.evalLocked(context.Background()); err != nil {
		return 0, err
	}
	return s.val, nil
}

// Set syncs pending work (which may still read the old value) and then
// overwrites the scalar.
func (s *ScalarHandle) Set(v float64) error {
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	if err := s.eng.evalLocked(context.Background()); err != nil {
		return err
	}
	s.val = v
	return nil
}

// ---------------------------------------------------------------------------
// Introspection

// CacheStats snapshots the engine's compilation-cache counters; the
// steady-state test asserts a second identical Eval adds hits and no
// misses. ccache.Stats.Sub diffs two snapshots.
func (e *Engine) CacheStats() ccache.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.Stats()
}

// Stats snapshots the engine's activity counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Remarks returns the optimization remarks of the most recent Eval's
// batches (fused/contracted and their negatives), in batch order,
// rendered from their plans on each call. Positions are the zero Pos —
// lazy programs have no source text.
func (e *Engine) Remarks() []remark.Remark {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []remark.Remark
	for _, p := range e.plans {
		out = append(out, p.Remarks()...)
	}
	return out
}

// ClearCache drops every cached compilation with its resident machine or
// worker and memoized canonicalizations (native artifacts on disk
// remain). The fresh-compile-per-iteration experiment arm uses this.
func (e *Engine) ClearCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = ccache.New(e.opt.CacheBytes)
	e.closeWorkers()
	clear(e.resident)
	e.memo.buckets = nil
}

// Close stops every worker process the native backend keeps beside its
// cached compilations. The engine stays usable: compilations stay
// cached, and the next native Eval of one starts its worker again. An
// engine that becomes unreachable unclosed has its workers stopped by a
// finalizer, and a worker whose host process exits exits too; Close is
// what makes the moment deterministic.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closeWorkers()
}

func (e *Engine) closeWorkers() error {
	var errs []error
	for _, r := range e.resident {
		errs = append(errs, r.close())
	}
	return errors.Join(errs...)
}

// driverOptions is the compilation-affecting option set, the second
// cache-key input besides the canonical words.
func (e *Engine) driverOptions() driver.Options {
	return driver.Options{
		Level:         e.opt.Level,
		ScalarReplace: e.opt.ScalarReplace,
		Check:         e.opt.Check,
		NoProve:       e.opt.NoProve,
		Backend:       e.opt.Backend,
	}
}
