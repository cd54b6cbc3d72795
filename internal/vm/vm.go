// Package vm executes scalarized (LIR) programs on real data. It
// compiles expressions and statements to closures once, then runs
// them, a loop nest a strip of its innermost loop at a time (DESIGN.md
// §22): 3–5 ns per element-statement on the six benchmarks against
// ~2.5 for the emitted Go of internal/gogen, so it is the default
// engine, not only the instrumented one. + − × ÷, the max, min, abs,
// sign, sqrt, floor and ceil builtins and every reduction run as typed
// loops over a strip, with no call per element through a func value;
// max and min are math.Max and math.Min bit for bit, calling
// them only for a NaN or a zero accumulator (fmax). Every array element
// access can be streamed to a Tracer, which is how the machine models
// observe the memory behavior that fusion and contraction change; a
// traced machine runs at strip width 1 and reports element order.
//
// All values are float64 (integers are exact up to 2^53; booleans are
// 0/1), matching the ZA surface language's numeric model.
package vm

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/lir"
)

// Tracer observes the execution's memory and communication behavior.
// Addr is a byte address in the simulated address space.
type Tracer interface {
	// Access reports one array element access (8 bytes at addr).
	Access(addr int64, write bool)
	// Flops reports n floating-point operations.
	Flops(n int64)
	// Comm reports one half of a ghost exchange (the halo slab for
	// array/off over region, elems elements): phase is send or recv,
	// and msgID, always positive, pairs a send with its receive.
	Comm(array string, off air.Offset, elems int, phase air.CommPhase, msgID int)
	// Reduce reports the global combine of one full reduction.
	Reduce()
}

// Options configures a run.
type Options struct {
	Out      io.Writer // writeln destination; nil discards
	Tracer   Tracer    // nil disables tracing
	MaxSteps int64     // statement-execution budget; 0 means default (1e10)
	// Ctx, when non-nil, cancels the execution: every statement charge
	// (single statements and whole loop nests alike) decrements a poll
	// countdown, so a cancelled or expired context stops even a
	// runaway interpreter loop with a resolution of one loop nest or
	// ctxPollInterval scalar statements. The run reports ctx.Err()
	// (errors.Is-testable for context.DeadlineExceeded).
	Ctx context.Context
	// Bounds carries the bounds prover's per-site
	// verdicts (internal/absint) for this exact LIR instance. The
	// machine checks one slice bound per strip whatever the verdict, so
	// a proof buys it nothing; the field stays for the -provefault
	// self-test. A Faulted site has every element access displaced by
	// FaultShift elements (wrapped into the storage), so the seeded
	// wrong evidence becomes an observable wrong answer for the
	// differential harness to catch. Nil means no site is faulted.
	Bounds *absint.Result
}

// ctxPollInterval is the number of charged statements between context
// polls: cheap enough to leave on, fine-grained enough that a 1ms
// deadline stops a long run promptly.
const ctxPollInterval = 1024

// Result summarizes an execution.
type Result struct {
	Steps int64 // executed element-statements + scalar statements
}

// Machine holds the compiled program and its storage, so callers can
// run once and then inspect final values.
type Machine struct {
	prog    *lir.Program
	slots   []float64
	slotIdx map[string]int
	arrays  map[string]*arrayStore
	procs   map[string]*compiledProc
	bounds  *absint.Result
	shard   Shard // nil for a whole-program machine; consulted only while compiling

	out     io.Writer
	tracer  Tracer
	steps   int64
	max     int64
	ctx     context.Context // nil when cancellation is not requested
	ctxLeft int64           // statements until the next context poll
	fault   error           // set when a sigFault is raised (budget exhaustion or cancellation)

	// idx holds the current loop-nest indices (absolute region
	// coordinates) while a sweep executes; along the strip dimension it
	// is the index of the strip's first element.
	idx [4]int

	// Strip buffers: expression scratch, contracted arrays and preload
	// registers. width is the strip width, nest the sweep being
	// compiled; free and bufLen are the compile-time pool behind
	// acquire/release.
	width  int
	bufs   [][]float64
	bufLen []int
	free   []int
	nest   *nestCtx

	// curResult is the result slot of the procedure currently being
	// compiled (-1 when none); used by return-with-value.
	curResult int
}

type arrayStore struct {
	data    []float64
	lo, hi  []int // storage bounds: Alloc, or a shard's local bounds
	strides []int
	base    int64 // byte base address in the simulated address space
}

type compiledProc struct {
	params []int // slot indices
	result int   // $result slot, or -1
	body   []execFn
}

// control signals returned by statement execution.
type signal int

const (
	sigNext signal = iota
	sigReturn
	// sigFault aborts execution; the fault cause is in Machine.fault.
	// Budget exhaustion uses this explicit path rather than panic so
	// that execution can safely span goroutines (a panic in a worker
	// goroutine would kill the whole process).
	sigFault
)

type execFn func(m *Machine) signal

type evalFn func(m *Machine) float64

// New compiles the program. Run executes it, and storage persists for
// inspection afterwards; to run it again, Reset the machine, re-seed the
// storage and Run: the compiled closures are kept.
func New(p *lir.Program, opt Options) (*Machine, error) {
	return build(p, opt, nil, stripWidth)
}

func build(p *lir.Program, opt Options, sh Shard, width int) (*Machine, error) {
	if opt.Tracer != nil {
		width = 1
	}
	m := &Machine{
		width:   width,
		prog:    p,
		slotIdx: map[string]int{},
		arrays:  map[string]*arrayStore{},
		procs:   map[string]*compiledProc{},
		out:     opt.Out,
		tracer:  opt.Tracer,
		max:     opt.MaxSteps,
		ctx:     opt.Ctx,
		bounds:  opt.Bounds,
		shard:   sh,
	}
	if m.max == 0 {
		m.max = 1e10
	}

	// Scalar slots: the declared scalars. Scalar-replacement preloads
	// are registered as scalars too, but like contracted arrays they
	// live in strip buffers, not slots.
	preload := map[string]bool{}
	for _, pr := range p.Procs {
		for _, nest := range lir.Nests(pr.Body) {
			for _, pl := range nest.Preloads {
				preload[pl.Var] = true
			}
		}
	}
	names := make([]string, 0, len(p.Source.Scalars))
	for n := range p.Source.Scalars {
		if !preload[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		m.slotIdx[n] = len(m.slotIdx)
	}
	arrNames := make([]string, 0, len(p.Source.Arrays))
	for n := range p.Source.Arrays {
		arrNames = append(arrNames, n)
	}
	sort.Strings(arrNames)
	m.slots = make([]float64, len(m.slotIdx))
	for _, n := range names {
		if s := p.Source.Scalars[n]; s.Config {
			m.slots[m.slotIdx[n]] = s.Init
		}
	}

	// Array storage over allocation bounds (a shard's local bounds),
	// row-major, with bases laid out sequentially in a simulated byte
	// address space.
	var nextBase int64
	for _, n := range arrNames {
		a := p.Source.Arrays[n]
		if a.Contracted {
			continue
		}
		bounds := a.Alloc
		if sh != nil {
			bounds = sh.Local(n)
		}
		rank := bounds.Rank()
		strides := make([]int, rank)
		size := 1
		for d := rank - 1; d >= 0; d-- {
			strides[d] = size
			size *= max(bounds.Extent(d), 0)
		}
		m.arrays[n] = &arrayStore{
			data:    make([]float64, size),
			lo:      append([]int(nil), bounds.Lo...),
			hi:      append([]int(nil), bounds.Hi...),
			strides: strides,
			base:    nextBase,
		}
		nextBase += int64(size) * 8
	}

	// Compile procedures.
	for name, pr := range p.Procs {
		cp := &compiledProc{result: -1}
		for _, pa := range pr.Params {
			slot, ok := m.slotIdx[pa]
			if !ok {
				return nil, fmt.Errorf("vm: unknown parameter slot %s", pa)
			}
			cp.params = append(cp.params, slot)
		}
		if pr.HasResult {
			slot, ok := m.slotIdx[pr.Name+".$result"]
			if !ok {
				return nil, fmt.Errorf("vm: missing result slot for %s", pr.Name)
			}
			cp.result = slot
		}
		m.procs[name] = cp
	}
	for name, pr := range p.Procs {
		m.curResult = m.procs[name].result
		body, err := m.compileNodes(pr.Body)
		if err != nil {
			return nil, fmt.Errorf("vm: compile %s: %w", name, err)
		}
		m.procs[name].body = body
	}
	m.curResult = -1
	if m.procs["main"] == nil {
		return nil, fmt.Errorf("vm: program has no main")
	}
	total := 0
	for _, n := range m.bufLen {
		total += n
	}
	slab := make([]float64, total)
	m.bufs = make([][]float64, len(m.bufLen))
	for i, n := range m.bufLen {
		m.bufs[i], slab = slab[:n:n], slab[n:]
	}
	return m, nil
}

// Run executes main. It is not reentrant.
func Run(p *lir.Program, opt Options) (*Machine, *Result, error) {
	m, err := New(p, opt)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run()
	return m, res, err
}

// Run executes the compiled main procedure. Budget exhaustion is
// reported as an ordinary error; the recover only guards against
// genuine runtime faults in compiled closures.
func (m *Machine) Run() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("vm: runtime fault: %v", r)
		}
	}()
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			return nil, fmt.Errorf("vm: cancelled before execution: %w", err)
		}
	}
	for _, fn := range m.procs["main"].body {
		if fn(m) != sigNext {
			break
		}
	}
	if m.fault != nil {
		return nil, m.fault
	}
	return &Result{Steps: m.steps}, nil
}

// Reset readies the machine to run main again, under ctx (nil: no
// cancellation), which replaces Options.Ctx. The step count, the fault,
// the context poll countdown and the loop indices start over; the
// compiled closures are kept, and so are storage and scalar slots as the
// last run (or the caller) left them. The next Run therefore starts from
// the bytes a fresh machine would only if the caller first overwrites
// every array cell and slot the program reads before writing — the lazy
// runtime's resident machines re-seed exactly that.
func (m *Machine) Reset(ctx context.Context) {
	m.steps, m.fault, m.ctxLeft, m.idx = 0, nil, 0, [4]int{}
	m.ctx = ctx
}

// Scalar returns the final value of a scalar by mangled name. The
// registers of contracted arrays and scalar-replacement preloads are
// strip buffers, per-iteration scratch with no final value, and are not
// observable here or through Scalars.
func (m *Machine) Scalar(name string) (float64, bool) {
	if i, ok := m.slotIdx[name]; ok {
		return m.slots[i], true
	}
	return 0, false
}

// Scalars returns the current value of every declared scalar by name.
func (m *Machine) Scalars() map[string]float64 {
	out := make(map[string]float64, len(m.slotIdx))
	for name, i := range m.slotIdx {
		out[name] = m.slots[i]
	}
	return out
}

// SetScalar overwrites a scalar's slot before Run — the lazy runtime's
// seeding path (it also overwrites config scalars, whose Init value
// New already installed). Reports whether the scalar exists.
func (m *Machine) SetScalar(name string, v float64) bool {
	if i, ok := m.slotIdx[name]; ok {
		m.slots[i] = v
		return true
	}
	return false
}

// ArrayData exposes an array's backing storage: data in row-major
// order over the allocation bounds (a shard's local bounds).
func (m *Machine) ArrayData(name string) []float64 {
	if a := m.arrays[name]; a != nil {
		return a.data
	}
	return nil
}

// At reads one logical element of an array.
func (m *Machine) At(name string, idx ...int) (float64, bool) {
	a := m.arrays[name]
	if a == nil || len(idx) != len(a.lo) {
		return 0, false
	}
	pos := 0
	for d, i := range idx {
		pos += (i - a.lo[d]) * a.strides[d]
	}
	if pos < 0 || pos >= len(a.data) {
		return 0, false
	}
	return a.data[pos], true
}

// MemoryFootprint returns the total bytes of allocated array storage —
// the quantity contraction reduces (Fig. 8).
func (m *Machine) MemoryFootprint() int64 {
	var n int64
	for _, a := range m.arrays {
		n += int64(len(a.data)) * 8
	}
	return n
}

// step charges one statement execution; false means the budget is
// exhausted (or the context was cancelled) and the caller must unwind
// with sigFault.
func (m *Machine) step() bool { return m.charge(1) }

// charge accounts n statement executions at once (whole loop nests
// charge in bulk) and polls the context on a statement-count
// countdown; false means the caller must unwind with sigFault.
func (m *Machine) charge(n int64) bool {
	m.steps += n
	if m.steps > m.max {
		if m.fault == nil {
			m.fault = fmt.Errorf("vm: execution budget exceeded (%d steps)", m.max)
		}
		return false
	}
	if m.ctx != nil {
		m.ctxLeft -= n
		if m.ctxLeft <= 0 {
			m.ctxLeft = ctxPollInterval
			select {
			case <-m.ctx.Done():
				if m.fault == nil {
					m.fault = fmt.Errorf("vm: execution cancelled after %d steps: %w", m.steps, m.ctx.Err())
				}
				return false
			default:
			}
		}
	}
	return true
}

func truthy(v float64) bool { return v != 0 }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
