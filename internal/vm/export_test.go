package vm

import (
	"repro/internal/air"
	"repro/internal/kernel"
	"repro/internal/lir"
)

// StripWidth is the production strip width.
const StripWidth = stripWidth

// NewWidth is New (sh == nil) or NewShard at an explicit strip width.
// The repository's test programs have extents of at most a few dozen,
// so at the production width no test would cross a strip boundary; the
// width differential runs every case at several widths through this
// hook. It exists in the test binary only: the width is not an option.
func NewWidth(p *lir.Program, opt Options, sh Shard, width int) (*Machine, error) {
	return build(p, opt, sh, width)
}

// DirectWrites is the number of m's statements whose right-hand side
// writes the destination itself instead of a scratch strip that is then
// copied there.
func DirectWrites(m *Machine) int { return m.directs }

// PackedOnHost reports whether this host runs the packed strip kernels
// (DESIGN.md §32).
func PackedOnHost() bool { return kernel.HasPacked() }

// SetPacked makes the machines built from now on run the packed strip
// kernels (on, where the host has them) or the Go loops, and returns the
// function that undoes it. Machines already built keep their kernels.
func SetPacked(on bool) (restore func()) {
	old := packed
	packed = on
	return func() { packed = old }
}

// Splits is the number of m's nests compiled to run in chunks of their
// outermost loop's rows.
func Splits(m *Machine) int { return m.splits }

// Views is the number of machines besides m that run chunks of its
// split nests.
func Views(m *Machine) int { return len(m.views) }

// SetChunkHook makes every chunk a view runs call hook with its chunk
// index first, and returns the function that undoes it.
func SetChunkHook(hook func(chunk int)) (restore func()) {
	old := chunkHook
	chunkHook = hook
	return func() { chunkHook = old }
}

// FoldStrip returns a full reduction's fold of one strip into its
// accumulator, compiled as a machine compiles it with the kernels it
// runs, so that its cost can be timed alone.
func FoldStrip(op air.ReduceOp) func(acc float64, x []float64) float64 {
	m := &Machine{slots: make([]float64, 1), bufs: make([][]float64, 1)}
	f := fold(0, reductions[op], register(0))
	return func(acc float64, x []float64) float64 {
		m.slots[0], m.bufs[0] = acc, x
		f(m, 0, len(x))
		return m.slots[0]
	}
}
