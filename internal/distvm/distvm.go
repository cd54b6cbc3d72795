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
// shard checks its storage against), the mailboxes, and the protocol
// the p goroutines speak over them. Scalar state is replicated and
// deterministic, so control flow is identical on every processor; the
// only cross-processor interactions are channel messages mirroring
// the machine's communication primitives:
//
//   - ghost-cell exchange: the owner captures its boundary values at
//     the send phase and the requiring processor installs them at the
//     receive phase, matching the lir.Comm send/receive split. Which
//     elements travel is a pure function of the block geometry, planned
//     once per Comm node and processor when the shard is compiled;
//   - reductions: partials gather at processor 0, combine in processor
//     order (deterministic regardless of goroutine scheduling), and
//     broadcast back;
//   - a barrier at every statement-group boundary (loop nests and
//     dimensional reductions), which keeps the processors in lockstep
//     and surfaces divergent control flow as a protocol error.
//
// A watchdog timeout converts a lost processor or a protocol mismatch
// into a descriptive error instead of a deadlock. The first processor
// to fail cancels the context every shard polls in its step charge and
// every blocked mailbox operation selects on, so the others unwind
// promptly; the caller's Options.Ctx is that context's parent.
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

// Machine is a distributed run: p shard executors plus the geometry
// and mailboxes that connect them. During a run each processor
// goroutine owns its vm.Machine exclusively and halo data moves only by
// message; the shared state is the channels and the abort context.
type Machine struct {
	prog  *lir.Program
	procs int

	// One decomposition per array rank, anchored at the bounding box
	// of every region of that rank.
	decomps map[int]*dist.Decomp
	// Every processor's storage bounds for every uncontracted array.
	locals map[string][]*localArray

	shards  []*vm.Machine        // processor p's executor, storage included
	scalars []map[string]float64 // per-processor final scalar state
	steps   int64

	timeout time.Duration

	// Per-processor mailboxes: halo carries ghost-cell data, ctrl
	// carries barrier arrivals, reduction partials, and releases.
	halo []chan haloMsg
	ctrl []chan ctrlMsg

	// First failure cancels ctx, which aborts every processor.
	ctx      context.Context
	cancel   context.CancelFunc
	failOnce sync.Once
	failErr  error

	// plans caches haloPlan while the shards compile (one goroutine).
	plans map[planKey]map[int][][]int
}

// errAborted is returned by a processor unwinding from a mailbox
// operation because the run's context is done.
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

// Run executes the program on p processors — one goroutine each — and
// returns the machine for inspection.
func Run(prog *lir.Program, opt Options) (*Machine, error) {
	if opt.Procs < 1 {
		return nil, fmt.Errorf("distvm: need at least one processor")
	}
	m := &Machine{
		prog:    prog,
		procs:   opt.Procs,
		decomps: map[int]*dist.Decomp{},
		locals:  map[string][]*localArray{},
		timeout: opt.Timeout,
		plans:   map[planKey]map[int][][]int{},
	}
	if m.timeout == 0 {
		m.timeout = 30 * time.Second
	}
	maxSteps := opt.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1e9
	}
	if err := m.decompose(); err != nil {
		return nil, err
	}
	m.layout()
	m.openChannels(opt.Ctx)
	defer m.cancel()

	m.shards = make([]*vm.Machine, m.procs)
	for p := range m.shards {
		vopt := vm.Options{MaxSteps: maxSteps, Ctx: m.ctx}
		if p == 0 {
			vopt.Out = opt.Out
		}
		sm, err := vm.NewShard(prog, vopt, newShard(m, p))
		if err != nil {
			return nil, fmt.Errorf("distvm: processor %d: %w", p, err)
		}
		m.shards[p] = sm
	}
	m.plans = nil

	steps := make([]int64, m.procs)
	var wg sync.WaitGroup
	for p, sm := range m.shards {
		wg.Add(1)
		go func(p int, sm *vm.Machine) {
			defer wg.Done()
			res, err := sm.Run()
			if err != nil {
				m.abort(fmt.Errorf("distvm: processor %d: %w", p, err))
				return
			}
			steps[p] = res.Steps
		}(p, sm)
	}
	wg.Wait()
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

// openChannels creates the abort context under parent (nil means none)
// and sizes the mailboxes so that the regular protocol never blocks a
// sender: ctrl sees at most p-1 in-flight arrivals plus one release,
// halo at most a handful of pipelined slabs per neighbor. Should a
// protocol bug overflow them anyway, the watchdog turns the stalled
// send into an error instead of a deadlock.
func (m *Machine) openChannels(parent context.Context) {
	if parent == nil {
		parent = context.Background()
	}
	m.ctx, m.cancel = context.WithCancel(parent)
	m.halo = make([]chan haloMsg, m.procs)
	m.ctrl = make([]chan ctrlMsg, m.procs)
	for p := 0; p < m.procs; p++ {
		m.halo[p] = make(chan haloMsg, 4*m.procs+64)
		m.ctrl[p] = make(chan ctrlMsg, m.procs+1)
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
		d := m.decomps[rank]
		locals := make([]*localArray, m.procs)
		for p := range locals {
			blk := d.Block(p)
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
