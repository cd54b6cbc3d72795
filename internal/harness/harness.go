// Package harness reproduces every table and figure of the paper's
// evaluation (§5): the commercial-compiler comparison (Fig. 6), static
// array contraction counts (Fig. 7), memory scaling (Fig. 8), runtime
// improvement ladders on the three machine models (Figs. 9–11), and
// the fusion-versus-communication study (§5.5).
package harness

import (
	"context"
	"sync"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/vm"
)

// CompileEmulated runs the front half of the pipeline and applies an
// emulated compiler strategy instead of the standard ladder.
func CompileEmulated(src string, em core.Emulation, configs map[string]int64) (*air.Program, *core.Plan, error) {
	airProg, _, err := driver.FrontEnd(context.TODO(), src, configs, driver.Hooks{})
	if err != nil {
		return nil, nil, err
	}
	return airProg, core.Emulate(airProg, em), nil
}

// Measurement is one benchmark execution under the machine models.
type Measurement struct {
	Compilation *driver.Compilation // what was executed
	Cycles      map[string]float64  // machine name -> modeled cycles
	CommCycles  map[string]float64
	Accesses    int64
	Flops       int64
	MemoryBytes int64
}

// multiTracer fans one VM trace out to several machine cost models,
// so a single execution prices all three paper machines. Each model's
// cache simulation runs on its own goroutine (CostTracer is
// single-goroutine state — see the machine package); the VM thread
// only appends events to a batch and hands full batches to every
// model's channel. Batches are written once and then only read, so
// sharing one slice across the replay goroutines is safe.
type multiTracer struct {
	ts    []*machine.CostTracer
	chs   []chan []traceEvent
	wg    sync.WaitGroup
	batch []traceEvent
}

// traceEvent is one recorded Tracer callback. n doubles as the address
// for accesses and the count for flops.
type traceEvent struct {
	kind  uint8
	write bool
	n     int64
	elems int
	msgID int
	phase air.CommPhase
	array string
	off   air.Offset
}

const (
	evAccess = iota
	evFlops
	evComm
	evReduce
)

// traceBatch is the fan-out granularity: large enough to amortize the
// channel handoff over the per-event simulation cost, small enough to
// keep the replay goroutines busy during the run.
const traceBatch = 4096

func newMultiTracer(ts []*machine.CostTracer) *multiTracer {
	m := &multiTracer{ts: ts, chs: make([]chan []traceEvent, len(ts))}
	for i, t := range ts {
		ch := make(chan []traceEvent, 4)
		m.chs[i] = ch
		m.wg.Add(1)
		go func(t *machine.CostTracer, ch chan []traceEvent) {
			defer m.wg.Done()
			for batch := range ch {
				for _, e := range batch {
					switch e.kind {
					case evAccess:
						t.Access(e.n, e.write)
					case evFlops:
						t.Flops(e.n)
					case evComm:
						t.Comm(e.array, e.off, e.elems, e.phase, e.msgID)
					case evReduce:
						t.Reduce()
					}
				}
			}
		}(t, ch)
	}
	return m
}

func (m *multiTracer) emit(e traceEvent) {
	m.batch = append(m.batch, e)
	if len(m.batch) >= traceBatch {
		m.flush()
	}
}

func (m *multiTracer) flush() {
	if len(m.batch) == 0 {
		return
	}
	b := m.batch
	m.batch = make([]traceEvent, 0, traceBatch)
	for _, ch := range m.chs {
		ch <- b
	}
}

// drain flushes the tail batch and waits for every model to finish
// replaying. The tracers must not be read before drain returns.
func (m *multiTracer) drain() {
	m.flush()
	for _, ch := range m.chs {
		close(ch)
	}
	m.wg.Wait()
}

func (m *multiTracer) Access(addr int64, write bool) {
	m.emit(traceEvent{kind: evAccess, n: addr, write: write})
}

func (m *multiTracer) Flops(n int64) {
	m.emit(traceEvent{kind: evFlops, n: n})
}

func (m *multiTracer) Comm(array string, off air.Offset, elems int, phase air.CommPhase, msgID int) {
	m.emit(traceEvent{kind: evComm, array: array, off: off, elems: elems, phase: phase, msgID: msgID})
}

func (m *multiTracer) Reduce() {
	m.emit(traceEvent{kind: evReduce})
}

// Measure compiles src with the given options and executes it once,
// pricing the run on every machine model with p processors.
func Measure(src string, opt driver.Options, procs int) (*Measurement, error) {
	c, err := driver.Compile(src, opt)
	if err != nil {
		return nil, err
	}
	models := machine.Models()
	ts := make([]*machine.CostTracer, len(models))
	for i, mdl := range models {
		ts[i] = machine.NewCostTracer(mdl, procs)
	}
	mt := newMultiTracer(ts)
	mach, _, err := vm.Run(c.LIR, vm.Options{Tracer: mt})
	mt.drain()
	if err != nil {
		return nil, err
	}
	meas := &Measurement{
		Compilation: c,
		Cycles:      map[string]float64{},
		CommCycles:  map[string]float64{},
		MemoryBytes: mach.MemoryFootprint(),
	}
	for i, mdl := range models {
		meas.Cycles[mdl.Name] = mt.ts[i].Cycles
		meas.CommCycles[mdl.Name] = mt.ts[i].CommCycles
	}
	// The trace statistics are the program's, the same under every model.
	meas.Accesses, meas.Flops = ts[0].AccessCount, ts[0].FlopCount
	return meas, nil
}

// Improvement converts a (baseline, optimized) cycle pair to the
// paper's percent-improvement metric: how much faster the optimized
// code runs, (t_base/t_opt - 1) × 100. Negative values are slowdowns.
func Improvement(baseline, optimized float64) float64 {
	if optimized <= 0 {
		return 0
	}
	return (baseline/optimized - 1) * 100
}
