// Package distvm executes a scalarized program on a distributed-memory
// machine: every array dimension is block distributed over a processor
// grid (package dist), each processor stores only its block plus halo,
// and the compiler-inserted communication primitives perform real
// ghost-cell exchanges.
//
// There is one LIR executor in the repository, package vm, and a
// processor here is a vm.Machine built through the vm.Shard seam: it
// allocates each array over the processor's local bounds, sweeps
// region ∩ block of every nest with the bounds captured when its
// closures are compiled, and hands the three instructions that involve
// other processors to this package. Operators, builtins, control flow,
// step charging and cancellation are therefore the sequential VM's by
// construction, not by a second implementation kept in agreement.
//
// What lives here is what is genuinely distributed: the decomposition
// and each processor's local bounds (block ± halo, clipped to the
// allocation, the halo widths taken from lir.Refs — the same walk the
// shard checks its storage against), and the protocol the p goroutines
// speak. Each compiles its own shard and then runs it. Scalar state is
// replicated and deterministic, so control flow is identical on every
// processor; the only cross-processor interactions mirror the machine's
// communication primitives:
//
//   - ghost-cell exchange, by message: the owner captures its boundary
//     values at the send phase and the requiring processor installs
//     them at the receive phase, matching the lir.Comm send/receive
//     split. What travels is a rectangle — a pure function of the block
//     geometry, which each side works out for itself when its shard is
//     compiled — copied a row at a time. Few and large (at most 21 a run
//     on the benchmarks), so they stay on buffered channels;
//   - a synchronisation at every statement-group boundary (loop nests
//     and dimensional reductions), thousands a run, through one
//     shared-memory combining barrier: a processor publishes its sync
//     number and its vector of partials (empty: a plain barrier) in its
//     own cache-line-sized slot; processor 0 folds the vectors in
//     processor order (deterministic regardless of goroutine
//     scheduling) and publishes the result in its slot, which releases
//     the others. This keeps the processors in lockstep — package mhp's
//     proofs assume exactly that — and a slot that is a synchronisation
//     ahead, or a vector of another length, is divergent control flow
//     and a protocol error.
//
// A wait on a slot spins briefly, then yields its P, then parks on the
// processor's wake channel (comm.go says why each). Only a parked wait
// and a halo message can block for long, and those run under a watchdog
// timer that converts a lost processor or a protocol mismatch into a
// descriptive error instead of a deadlock. The first processor to fail
// raises the abort flag spinning waiters poll and cancels the context
// that every shard polls in its step charge and every blocked operation
// selects on, so the others unwind promptly; the caller's Options.Ctx
// is that context's parent.
//
// Running a program here and on the sequential VM and comparing every
// array element is the strongest validation of the communication-
// insertion machinery: a missing or misplaced exchange leaves stale
// halo values and the results diverge. Because every array element is
// computed by exactly one owner from bit-identical inputs by the same
// closures, a parallel run Gathers bit-identically to the sequential VM
// whenever reduction results do not feed back into array values (see
// the determinism tests), and a one-processor run is the sequential run
// bit for bit, reductions included.
package distvm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/air"
	"repro/internal/dist"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/vm"
)

// Options configures a distributed run.
type Options struct {
	Procs    int
	Out      io.Writer     // processor 0's writeln output; nil discards
	MaxSteps int64         // per-processor statement budget (the VM's charging rule); 0 = default 1e9
	Timeout  time.Duration // watchdog for lost processors; 0 = default 30s
	// Ctx, when non-nil, cancels the run: cancellation aborts every
	// processor the same way a peer failure does (blocked channel
	// operations and the per-statement budget poll both observe the
	// abort). The run reports ctx.Err() (errors.Is-testable for
	// context.DeadlineExceeded).
	Ctx context.Context
}

// Machine is a distributed run: p shard executors plus the geometry,
// barrier slots and halo mailboxes that connect them. During a run each
// processor goroutine owns its vm.Machine exclusively and halo data
// moves only by message; the shared state is the slots, the channels
// and the abort context.
type Machine struct {
	prog  *lir.Program
	procs int

	// One decomposition per array rank, anchored at the bounding box
	// of every region of that rank, and every processor's block of it.
	decomps map[int]*dist.Decomp
	blocks  map[int][]*sema.Region
	// Every processor's storage bounds for every uncontracted array.
	locals map[string][]*localArray

	shards  []*vm.Machine        // processor p's executor, storage included
	ends    []*shard             // and its end of the protocol
	scalars []map[string]float64 // per-processor final scalar state
	steps   int64

	timeout time.Duration

	// slots[p] is processor p's word in the combining barrier (slot 0
	// doubles as the release word); halo[p] its ghost-cell mailbox,
	// which p makes once it has planned its receives.
	slots []slot
	halo  []chan haloMsg

	// First failure raises aborted, which spinning waiters poll, and
	// cancels ctx, which everything that blocks selects on.
	ctx      context.Context
	cancel   context.CancelFunc
	aborted  atomic.Bool
	failOnce sync.Once
	failErr  error
}

// Traffic counts what a run's processors exchanged. Everything but
// Parks is a function of the program and the processor count.
type Traffic struct {
	Barriers     int64 // synchronisations that combine nothing: one per execution of a nest without reductions
	Reductions   int64 // synchronisations that combine a vector
	HaloMessages int64
	HaloElements int64
	Parks        int64 // waits that outlasted the spin and yield budget and blocked; timing-dependent
}

// Traffic returns the run's counts: the synchronisations as processor 0
// counted them (every processor takes part in each), halo traffic and
// parks summed over the processors.
func (m *Machine) Traffic() Traffic {
	t := m.ends[0].traffic
	for _, s := range m.ends[1:] {
		t.HaloMessages += s.traffic.HaloMessages
		t.HaloElements += s.traffic.HaloElements
		t.Parks += s.traffic.Parks
	}
	return t
}

// errAborted is returned by a processor unwinding from a wait because
// the run has been aborted or its context is done.
var errAborted = errors.New("distvm: aborted by another processor's failure")

// abort records the first failure and cancels the run's context, which
// releases every processor blocked on a channel operation and stops
// the rest at their next step charge. A processor that merely observed
// the cancellation reports errAborted: if that is the first report, no
// processor failed and the cancellation was the caller's.
func (m *Machine) abort(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, errAborted) {
		err = fmt.Errorf("distvm: execution cancelled: %w", m.ctx.Err())
	}
	m.failOnce.Do(func() {
		m.failErr = err
		m.aborted.Store(true)
		m.cancel()
	})
}

// localArray is the geometry of one processor's slice of an array: its
// block expanded by the array's halo widths, clipped to the allocation
// bounds. The storage itself belongs to the processor's vm.Machine,
// row-major over bounds.
type localArray struct {
	bounds  *sema.Region
	strides []int
	block   *sema.Region // owned block of the anchor
}

func (a *localArray) contains(idx []int) bool {
	for k := range idx {
		if idx[k] < a.bounds.Lo[k] || idx[k] > a.bounds.Hi[k] {
			return false
		}
	}
	return true
}

func (a *localArray) at(idx []int) int {
	p := 0
	for k := range idx {
		p += (idx[k] - a.bounds.Lo[k]) * a.strides[k]
	}
	return p
}

// Run executes the program on p processors — one goroutine each, which
// compiles its shard and then runs it — and returns the machine for
// inspection.
func Run(prog *lir.Program, opt Options) (*Machine, error) {
	if opt.Procs < 1 {
		return nil, fmt.Errorf("distvm: need at least one processor")
	}
	m := &Machine{
		prog:    prog,
		procs:   opt.Procs,
		decomps: map[int]*dist.Decomp{},
		blocks:  map[int][]*sema.Region{},
		locals:  map[string][]*localArray{},
		timeout: opt.Timeout,
	}
	if m.timeout == 0 {
		m.timeout = 30 * time.Second
	}
	if err := m.decompose(); err != nil {
		return nil, err
	}
	m.layout()
	m.connect(opt.Ctx)
	defer m.cancel()
	vopt := vm.Options{Out: opt.Out, MaxSteps: opt.MaxSteps, Ctx: m.ctx}
	if vopt.MaxSteps == 0 {
		vopt.MaxSteps = 1e9
	}

	m.shards = make([]*vm.Machine, m.procs)
	m.ends = make([]*shard, m.procs)
	steps := make([]int64, m.procs)
	// Nobody runs before everybody has compiled: a processor's mailbox
	// must exist before a neighbor posts to it. Its capacity is the
	// receive legs its shard planned — a Comm node runs at most once
	// between two synchronisations, so no more can be in flight to it
	// and a send never blocks. Should a protocol bug overflow it anyway,
	// the watchdog turns the stalled send into an error.
	var built, done sync.WaitGroup
	built.Add(m.procs)
	done.Add(m.procs)
	for p := range m.shards {
		go func(p int, vopt vm.Options) {
			defer done.Done()
			s := &shard{m: m, id: p}
			sm, err := vm.NewShard(prog, vopt, s)
			m.shards[p], m.ends[p], m.halo[p] = sm, s, make(chan haloMsg, s.inbox)
			if err != nil {
				m.abort(fmt.Errorf("distvm: processor %d: %w", p, err))
			}
			built.Done()
			built.Wait()
			if m.aborted.Load() {
				return
			}
			res, err := sm.Run()
			if err != nil {
				m.abort(fmt.Errorf("distvm: processor %d: %w", p, err))
				return
			}
			steps[p] = res.Steps
		}(p, vopt)
		vopt.Out = nil // processor 0 alone writes
	}
	done.Wait()
	if m.failErr != nil {
		return nil, m.failErr
	}
	m.scalars = make([]map[string]float64, m.procs)
	for p, sm := range m.shards {
		m.scalars[p] = sm.Scalars()
		m.steps += steps[p]
	}
	return m, nil
}

// Steps returns the statements executed, summed over the processors'
// step counters (replicated scalar statements count once per
// processor; element-statements count once, at their owner).
func (m *Machine) Steps() int64 { return m.steps }

// MemoryFootprint returns the total bytes of array storage over all
// processors, halos included.
func (m *Machine) MemoryFootprint() int64 {
	var n int64
	for _, sm := range m.shards {
		n += sm.MemoryFootprint()
	}
	return n
}

// connect creates the abort context under parent (nil means none) and
// the barrier slots. The halo mailboxes come later, one per processor,
// sized by what its compiled shard will receive.
func (m *Machine) connect(parent context.Context) {
	if parent == nil {
		parent = context.Background()
	}
	m.ctx, m.cancel = context.WithCancel(parent)
	m.halo = make([]chan haloMsg, m.procs)
	m.slots = make([]slot, m.procs)
	for p := range m.slots {
		m.slots[p].wake = make(chan struct{}, 1)
	}
}

// sweeps calls visit for every Nest and PartialReduce of the program.
func (m *Machine) sweeps(visit func(lir.Node)) {
	for _, pr := range m.prog.Procs {
		lir.Walk(pr.Body, func(n lir.Node) {
			switch n.(type) {
			case *lir.Nest, *lir.PartialReduce:
				visit(n)
			}
		})
	}
}

// decompose builds one anchor per rank covering every declared region
// and every sweep region, so ownership is total over all executed
// indices.
func (m *Machine) decompose() error {
	bbox := map[int]*sema.Region{}
	cover := func(r *sema.Region) {
		b, ok := bbox[r.Rank()]
		if !ok {
			bbox[r.Rank()] = &sema.Region{Lo: append([]int(nil), r.Lo...), Hi: append([]int(nil), r.Hi...)}
			return
		}
		for k := 0; k < r.Rank(); k++ {
			b.Lo[k] = min(b.Lo[k], r.Lo[k])
			b.Hi[k] = max(b.Hi[k], r.Hi[k])
		}
	}
	for _, a := range m.prog.Source.Arrays {
		if !a.Contracted {
			cover(a.Declared)
		}
	}
	m.sweeps(func(n lir.Node) {
		switch x := n.(type) {
		case *lir.Nest:
			cover(x.Region)
		case *lir.PartialReduce:
			cover(x.Region)
			cover(x.Dest)
		}
	})
	for rank, b := range bbox {
		d, err := dist.NewDecomp(m.procs, b)
		if err != nil {
			return fmt.Errorf("distvm: rank %d: %w", rank, err)
		}
		m.decomps[rank] = d
		for p := 0; p < m.procs; p++ {
			m.blocks[rank] = append(m.blocks[rank], d.Block(p))
		}
	}
	return nil
}

// layout computes every processor's local bounds for every array. The
// halo is the wider of the array's global halo (Alloc vs Declared,
// which only reflects offsets that cross the global region bounds) and
// the largest offset any sweep applies to it in each direction: a
// neighbor offset deep in the interior still needs a local ghost row.
// The offsets come from lir.Refs, preloads included — the walk the
// shard executor checks its storage against.
func (m *Machine) layout() {
	type widths struct{ lo, hi []int }
	halos := map[string]widths{}
	for name, a := range m.prog.Source.Arrays {
		if !a.Contracted {
			lo, hi := a.Halo()
			halos[name] = widths{lo, hi}
		}
	}
	m.sweeps(func(n lir.Node) {
		lir.Refs(n, func(array string, off air.Offset, _ *sema.Region) {
			h, ok := halos[array]
			if !ok {
				return // contracted: a register, no storage
			}
			for k, v := range off {
				h.lo[k] = max(h.lo[k], -v)
				h.hi[k] = max(h.hi[k], v)
			}
		})
	})
	for name, h := range halos {
		a := m.prog.Source.Arrays[name]
		rank := a.Declared.Rank()
		locals := make([]*localArray, m.procs)
		for p, blk := range m.blocks[rank] {
			b := &sema.Region{Lo: make([]int, rank), Hi: make([]int, rank)}
			for k := 0; k < rank; k++ {
				b.Lo[k] = max(blk.Lo[k]-h.lo[k], a.Alloc.Lo[k])
				b.Hi[k] = min(blk.Hi[k]+h.hi[k], a.Alloc.Hi[k])
			}
			la := &localArray{bounds: b, block: blk, strides: make([]int, rank)}
			size := 1
			for k := rank - 1; k >= 0; k-- {
				la.strides[k] = size
				size *= max(b.Extent(k), 0)
			}
			locals[p] = la
		}
		m.locals[name] = locals
	}
}
