package harness

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
)

// Env is what a study runs under: the two settings cmd/experiments
// takes from its flags. The zero value runs at full size on every CPU.
type Env struct {
	Size float64 // problem-size factor for the runtime studies; 0 means 1
	Jobs int     // measurements run concurrently; < 1 means one per CPU
}

// scale applies the size factor to a study's default problem size.
// Nothing below 8 is asked for: the benchmarks' stencils and boundary
// regions need a few interior points.
func (e *Env) scale(size int64) int64 {
	if e.Size != 0 {
		size = int64(float64(size) * e.Size)
	}
	return max(size, 8)
}

// configs is the config override that runs b at its scaled default
// size. The paper scales total problem size with p (constant data per
// processor), which a fixed per-processor size under the
// one-representative-processor machine model reproduces.
func (e *Env) configs(b programs.Benchmark) map[string]int64 {
	return map[string]int64{b.SizeConfig: e.scale(b.DefaultSize)}
}

// cell is one point of a study's benchmark × level × processor-count
// grid; procs is 0 in a sequential study.
type cell struct {
	b     programs.Benchmark
	lvl   core.Level
	procs int
}

func (c cell) String() string {
	if c.procs == 0 {
		return fmt.Sprintf("%s at %s", c.b.Name, c.lvl)
	}
	return fmt.Sprintf("%s at %s p=%d", c.b.Name, c.lvl, c.procs)
}

// options compiles the cell: its level at the given size, with
// communication inserted for its processor count.
func (c cell) options(configs map[string]int64) driver.Options {
	opt := driver.Options{Level: c.lvl, Configs: configs}
	if c.procs > 0 {
		co := comm.DefaultOptions(c.procs)
		opt.Comm = &co
	}
	return opt
}

// grid enumerates every benchmark at every given level and processor
// count, benchmark-major — the row order of every per-cell table. No
// procs means a sequential study.
func grid(levels []core.Level, procs ...int) []cell {
	if len(procs) == 0 {
		procs = []int{0}
	}
	var cells []cell
	for _, b := range programs.All() {
		for _, lvl := range levels {
			for _, p := range procs {
				cells = append(cells, cell{b, lvl, p})
			}
		}
	}
	return cells
}

// eachCell measures every cell on the worker pool, naming the cell in
// any error.
func eachCell[R any](e *Env, cells []cell, f func(cell) (R, error)) ([]R, error) {
	return parallelMap(e, cells, func(c cell) (R, error) {
		r, err := f(c)
		if err != nil {
			err = fmt.Errorf("%s: %w", c, err)
		}
		return r, err
	})
}

// parallelMap applies f to every item on a pool of e.Jobs workers and
// returns the results in input order. Each measurement is independent
// — a compilation plus an execution sharing no mutable state — which
// is what makes this safe. All items run to completion even when some
// fail; the error reported is the first failing item's in input order,
// so results and diagnostics are deterministic regardless of
// scheduling.
func parallelMap[T, R any](e *Env, items []T, f func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	workers := e.Jobs
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	slots := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range items {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = f(items[i])
			<-slots
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
