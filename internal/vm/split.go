package vm

import (
	"runtime"
	"sync"

	"repro/internal/air"
)

// A whole-program, untraced machine runs each nest absint.Result.Splits
// accepts in contiguous chunks of its outermost loop's rows, one per
// GOMAXPROCS (DESIGN.md §31, the rule a resident native worker splits
// by). The nest is compiled once; its outermost loop reads the range
// of iterations it runs from the machine it is given (Machine.rows).
// The main goroutine runs chunk 0 on the machine itself and each other
// chunk on a view started with go: a Machine with its own loop indices,
// strip buffers and scalar slots, built in New, whose closures reach
// the same array storage. It waits for every view, then folds the
// views' max/min accumulators into its own in chunk order, which is
// the sequential fold bit for bit. Nothing is parked between nests, so
// nothing outlives one and an idle machine uses no CPU. The nest's
// steps are charged once, by the main goroutine, before it splits;
// every chunk polls the run's context once per row, and a chunk that
// stops there makes the nest fail as a cancelled charge does.

// view is one chunk's machine of a split nest, with what its goroutine
// needs to run and report.
type view struct {
	m     *Machine
	chunk int             // its index among the nest's chunks, from 1
	run   func(*Machine)  // the nest's sweep
	wg    *sync.WaitGroup // the parent's
	fault any             // what the sweep panicked with, nil when none
	start func()          // work, bound once so that go allocates nothing
}

// chunkHook, when set, runs at the start of every chunk a view runs;
// export_test.go sets it to panic in a chunk or to cancel a run from
// inside one.
var chunkHook func(chunk int)

// work runs the view's chunk. A panic is recovered here, where it
// happens, and re-raised by the main goroutine once every chunk is
// done: a panic that left a goroutine would end the process.
func (v *view) work() {
	defer v.wg.Done()
	defer func() { v.fault = recover() }()
	if chunkHook != nil {
		chunkHook(v.chunk)
	}
	v.run(v.m)
}

// addViews gives the machine GOMAXPROCS-1 views, each at its strip
// width, with strip buffers laid out like its own and a slot per
// scalar.
func (m *Machine) addViews() {
	for c := 1; c < runtime.GOMAXPROCS(0); c++ {
		v := &view{chunk: c, wg: &m.wg}
		v.m = &Machine{width: m.width, slots: make([]float64, len(m.slots)), bufs: stripBuffers(m.bufLen)}
		v.start = v.work
		m.views = append(m.views, v)
	}
}

// split starts the reduction targets at their identities ids, runs a
// split nest's sweep over its rows iterations of the outermost loop and
// folds the targets' chunk accumulators; sigFault when a chunk stopped
// at the run's context.
func (m *Machine) split(run func(*Machine), rows int, targets []int, ids []float64, ops []air.ReduceOp) signal {
	for i, slot := range targets {
		m.slots[slot] = ids[i]
	}
	n := min(runtime.GOMAXPROCS(0), len(m.views)+1, rows)
	views := m.views[:n-1]
	m.fork(run, rows, views)
	for _, v := range views {
		if v.fault != nil {
			panic(v.fault)
		}
	}
	if m.ctx != nil && m.cancelled() {
		return sigFault // a chunk may have stopped at the context
	}
	for _, v := range views {
		for i, slot := range targets {
			m.slots[slot] = reductions[ops[i]].F2(m.slots[slot], v.m.slots[slot])
		}
	}
	return sigNext
}

// fork starts a goroutine per view on chunks 1.., runs chunk 0, and
// waits for every view, even when chunk 0 panics.
func (m *Machine) fork(run func(*Machine), rows int, views []*view) {
	n := len(views) + 1
	for c, v := range views {
		copy(v.m.slots, m.slots)
		v.m.ctx = m.ctx
		v.run, v.m.rows = run, [2]int{(c + 1) * rows / n, (c + 2) * rows / n}
		m.wg.Add(1)
		go v.start()
	}
	defer m.wg.Wait()
	m.rows = [2]int{0, rows / n}
	run(m)
}
