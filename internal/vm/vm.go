// Package vm executes scalarized (LIR) programs on real data. It
// compiles expressions and statements to closures once, then runs
// them, a loop nest a strip of its innermost loop at a time (DESIGN.md
// §22): 2–6 ns per element-statement on the six benchmarks against
// ~2.5 for the emitted Go of internal/gogen, so it is the default
// engine, not only the instrumented one. The machine defines no
// operator itself: each operator, builtin and reduction is an entry of
// internal/kernel, whose scalar rule a uniform operand runs and whose
// strip kernels a vector runs — typed loops for + − × ÷, max, min, abs,
// sign, sqrt, floor, ceil and the folds, and on an amd64 host with AVX
// packed kernels, four lanes per instruction and bit for bit the Go
// loops (DESIGN.md §32). Every
// array element access can be streamed to a Tracer, which is how the
// machine models observe the memory behavior that fusion and
// contraction change; a traced machine runs at strip width 1 and
// reports element order.
//
// A whole-program, untraced machine also uses the host's cores. A nest
// that absint.Result.Splits accepts under Options.Bounds — at least
// absint.SplitWork element-statements (lir.Work, the count the machine
// charges), every access proven, no dependence carried
// by its outermost loop, only max and min reductions, the rule a
// resident native worker splits by — runs in contiguous chunks of its
// outermost loop's rows, one per GOMAXPROCS: chunk 0 on the calling
// goroutine, the others on views started with go for the nest and
// waited for before it ends, their accumulators folded in chunk order
// (split.go, DESIGN.md §31). Output, steps and every bit of storage are
// those of the one-chunk run. A distvm shard and a traced machine never
// split.
//
// A machine runs again without being compiled again: Rewind returns it
// to the state New leaves (zpld's resident machines, DESIGN.md §10),
// and Reset restarts only its counters, for a caller that re-seeds the
// storage itself (the lazy engine's, §28).
//
// All values are float64 (integers are exact up to 2^53; booleans are
// 0/1), matching the ZA surface language's numeric model.
package vm

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

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

// defaultMaxSteps is the step budget of a machine whose Options leave
// it 0: a run's, and each processor's of a distvm run.
const defaultMaxSteps = 1e10

// Options configures a run.
type Options struct {
	Out      io.Writer // writeln destination; nil discards
	Tracer   Tracer    // nil disables tracing
	MaxSteps int64     // statement-execution budget; 0 means 1e10 (defaultMaxSteps)
	// Ctx, when non-nil, cancels the execution: every statement charge
	// (single statements and whole loop nests alike) decrements a poll
	// countdown, and every row of a loop nest polls (a one-dimensional
	// nest every ctxPollInterval elements), so a cancelled or expired
	// context stops a runaway interpreter loop within ctxPollInterval
	// scalar statements and one long sweep within a row. The run
	// reports ctx.Err() (errors.Is-testable for
	// context.DeadlineExceeded).
	Ctx context.Context
	// Bounds carries the bounds prover's per-site verdicts
	// (internal/absint) for this exact LIR instance. The machine checks
	// one slice bound per strip whatever the verdict; what a proof buys
	// it is the split: a whole-program, untraced machine runs each nest
	// Bounds.Splits accepts — every access proven, among other
	// conditions — in chunks on GOMAXPROCS goroutines (split.go). Nil
	// splits nothing. A Faulted site has every element access displaced
	// by FaultShift elements (wrapped into the storage), so the seeded
	// wrong evidence of the -provefault self-test becomes an observable
	// wrong answer for the differential harness to catch; a nest with a
	// faulted site never splits.
	Bounds *absint.Result
}

// ctxPollInterval is the number of charged statements, or of elements
// of a one-dimensional sweep, between context polls: cheap enough to
// leave on, fine-grained enough that a 1ms deadline stops a long run
// promptly.
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
	// directs counts the statements compiled to write their destination
	// directly (compileInto); tests read it.
	directs int

	// A split nest (split.go): splits counts the nests compiled to
	// split, views are the machines that run chunks 1.. of one, wg
	// waits for them, and rows is the range of outermost-loop
	// iterations the chunk this machine runs covers.
	splits int
	views  []*view
	wg     sync.WaitGroup
	rows   [2]int

	// curResult is the result slot of the procedure currently being
	// compiled (-1 when none); used by return-with-value.
	curResult int

	// inits are the config scalars' slots and declared values (fresh).
	inits []slotInit
}

// slotInit is a config scalar's slot and the value a fresh machine
// holds there.
type slotInit struct {
	slot int
	v    float64
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
// inspection afterwards. To run it again, Rewind it to the state New
// leaves, or Reset it and re-seed the storage, and Run: the compiled
// closures are kept.
func New(p *lir.Program, opt Options) (*Machine, error) {
	return build(p, opt, nil, stripWidth)
}

func build(p *lir.Program, opt Options, sh Shard, width int) (*Machine, error) {
	// A shard's storage is clipped to the allocation bounds, so a
	// program whose price fits fits every shard too.
	if _, err := p.Bytes(); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	if opt.Tracer != nil {
		width = 1
	}
	m := &Machine{
		width:   width,
		prog:    p,
		slotIdx: map[string]int{},
		arrays:  map[string]*arrayStore{},
		procs:   map[string]*compiledProc{},
		tracer:  opt.Tracer,
		bounds:  opt.Bounds,
		shard:   sh,
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
			m.inits = append(m.inits, slotInit{m.slotIdx[n], s.Init})
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
	m.bufs = stripBuffers(m.bufLen)
	if m.splits > 0 {
		m.addViews()
	}
	m.fresh(opt, false)
	return m, nil
}

// stripBuffers allocates strip buffers of the given lengths as cuts of
// one slab.
func stripBuffers(lens []int) [][]float64 {
	total := 0
	for _, n := range lens {
		total += n
	}
	slab := make([]float64, total)
	bufs := make([][]float64, len(lens))
	for i, n := range lens {
		bufs[i], slab = slab[:n:n], slab[n:]
	}
	return bufs
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

// ScalarSlot returns a scalar's slot by mangled name, or nil for a name
// with none: Run reads the scalar from it and leaves its final value
// there. Config scalars hold the Init value New installed. The lazy
// runtime seeds and reads back a resident machine's scalars through it.
func (m *Machine) ScalarSlot(name string) *float64 {
	if i, ok := m.slotIdx[name]; ok {
		return &m.slots[i]
	}
	return nil
}

// ArrayData exposes an array's backing storage: data in row-major
// order over the allocation bounds (a shard's local bounds).
func (m *Machine) ArrayData(name string) []float64 {
	if a := m.arrays[name]; a != nil {
		return a.data
	}
	return nil
}

// SwapArray makes data an array's storage and returns the storage it
// replaces: nil, with nothing replaced, on a shard machine (whose
// exchanges keep the storage they were compiled with), for an array
// that has no storage, or for data of another length. Every other
// closure reaches storage through its array, so the next Run reads and
// writes data; the lazy runtime binds handle slices this way instead of
// copying them.
func (m *Machine) SwapArray(name string, data []float64) []float64 {
	a := m.arrays[name]
	if m.shard != nil || a == nil || len(data) != len(a.data) {
		return nil
	}
	old := a.data
	a.data = data
	return old
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

// charge accounts n statement executions at once (a sweep charges its
// lir.Work in bulk), compared with the budget before it is added, and
// polls the context on a statement-count countdown; false means the
// caller must unwind with sigFault.
func (m *Machine) charge(n int64) bool {
	if n > m.max-m.steps {
		if m.fault == nil {
			m.fault = fmt.Errorf("vm: execution budget exceeded (%d steps)", m.max)
		}
		return false
	}
	m.steps += n
	if m.ctx != nil {
		m.ctxLeft -= n
		if m.ctxLeft <= 0 {
			m.ctxLeft = ctxPollInterval
			return !m.cancelled()
		}
	}
	return true
}

// cancelled polls the context (set) and, when it is done, records the
// cancellation as the run's fault. charge asks on its countdown, and a
// sweep, charged in bulk before it runs, asks once per row.
func (m *Machine) cancelled() bool {
	select {
	case <-m.ctx.Done():
		if m.fault == nil {
			m.fault = fmt.Errorf("vm: execution cancelled after %d steps: %w", m.steps, m.ctx.Err())
		}
		return true
	default:
		return false
	}
}

// Rewind readies the machine to run main again from exactly the state
// New(p, opt) leaves a machine in (fresh), its compiled closures kept:
// storage, strip buffers and slots as New leaves them, Out, Ctx and
// MaxSteps opt's. It reports false, and changes nothing, when New would
// compile another machine for opt: opt or the machine has a Tracer,
// opt's Bounds are not the ones it was built with, it is a shard, or it
// splits nests into another number of chunks than GOMAXPROCS asks for
// now.
func (m *Machine) Rewind(opt Options) bool {
	if opt.Tracer != nil || m.tracer != nil || opt.Bounds != m.bounds || m.shard != nil ||
		m.splits > 0 && len(m.views) != runtime.GOMAXPROCS(0)-1 {
		return false
	}
	m.fresh(opt, true)
	return true
}

// Release drops the writer and context of the machine's last run, for
// a machine kept idle until a Rewind sets both again.
func (m *Machine) Release() {
	m.out, m.ctx = nil, nil
	for _, v := range m.views {
		v.m.ctx = nil
	}
}

// fresh sets the state a machine New returns starts from, under opt:
// every array word (halos included), strip buffer and view zero, config
// scalars at their declared value and every other slot 0, the step
// count, fault, context poll countdown and loop indices reset (Reset),
// and Out, Ctx and MaxSteps opt's. New's storage and buffers were
// allocated just now and are zero already; written says they may hold
// what a run or a caller wrote since, and clears them.
func (m *Machine) fresh(opt Options, written bool) {
	m.Reset(opt.Ctx)
	m.out, m.max, m.rows = opt.Out, cmp.Or(opt.MaxSteps, defaultMaxSteps), [2]int{}
	clear(m.slots)
	for _, in := range m.inits {
		m.slots[in.slot] = in.v
	}
	if !written {
		return
	}
	for _, a := range m.arrays {
		clear(a.data)
	}
	for _, b := range m.bufs {
		clear(b)
	}
	for _, v := range m.views {
		v.m.Reset(nil)
		v.m.rows, v.run, v.fault = [2]int{}, nil, nil
		clear(v.m.slots)
		for _, b := range v.m.bufs {
			clear(b)
		}
	}
}
