package vm

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/dep"
	"repro/internal/kernel"
	"repro/internal/lir"
	"repro/internal/sema"
)

// Shard is the construction-time seam that turns a Machine into one
// processor of a distributed run (package distvm supplies it). The
// machine asks it where its storage ends and which part of each sweep
// it owns while closures are built, so every loop bound stays a
// captured constant, and routes the three instructions that involve
// other processors through it. Nothing else about execution differs:
// operators, builtins, control flow, step charging and cancellation
// are the whole-program machine's.
type Shard interface {
	// Local returns the bounds of this processor's storage for an
	// uncontracted array: its owned block widened by the array's halo
	// and clipped to the allocation. A dimension may be empty (Hi < Lo).
	Local(array string) *sema.Region
	// Portion returns the part of a sweep region this processor owns,
	// or nil when it owns none of it.
	Portion(r *sema.Region) *sema.Region
	// Comm prepares one ghost-cell exchange over data, this machine's
	// storage for c.Array (row-major over Local bounds); the returned
	// function performs c's phase of it each time the node executes.
	Comm(c *lir.Comm, data []float64) (func() error, error)
	// AllCombine contributes part to a collective and returns the
	// parts of all processors folded in processor order (fold
	// accumulates next into acc element-wise). An empty part makes the
	// collective a barrier. Ownership: the result is processor 0's
	// part, shared between the processors; nobody writes it, and it is
	// valid until the caller's next AllCombine. A caller may therefore
	// reuse a part from its second-next AllCombine on, and no sooner:
	// processor 0 is back in its next sweep while a peer still reads
	// the last result, which is why the callers below alternate between
	// two buffers.
	AllCombine(part []float64, fold func(acc, next []float64)) ([]float64, error)
}

// NewShard compiles the program as one processor of a distributed run:
// arrays are allocated over sh.Local, every Nest and PartialReduce
// sweeps sh.Portion of its region, reductions all-combine, sweeps end
// in a barrier and Comm nodes move real data. ArrayData then returns
// storage over the local bounds.
func NewShard(p *lir.Program, opt Options, sh Shard) (*Machine, error) {
	return build(p, opt, sh, stripWidth)
}

// portion returns the part of r this shard sweeps; an empty portion is
// normalised so that its Size is 0 and none of its loops run.
func (m *Machine) portion(r *sema.Region) *sema.Region {
	if p := m.shard.Portion(r); p != nil {
		return p
	}
	e := &sema.Region{Lo: make([]int, r.Rank()), Hi: make([]int, r.Rank())}
	for d := range e.Hi {
		e.Hi[d] = -1
	}
	return e
}

// checkLocal proves, when the shard is built, that every element the
// sweep node n touches lies inside this shard's storage: for each
// reference, portion + offset ⊆ local bounds, per dimension. Accesses
// compile to flat row-major positions, which a stray index would alias
// silently rather than fault on, so this is the check that stands in
// for a per-element test.
func (m *Machine) checkLocal(n lir.Node) error {
	var err error
	var last, part *sema.Region // a node's references share a region or two
	lir.Refs(n, func(array string, off air.Offset, over *sema.Region) {
		a := m.arrays[array]
		if over != last {
			last, part = over, m.shard.Portion(over)
		}
		if a == nil || part == nil || err != nil {
			return
		}
		for d := range part.Lo {
			if part.Lo[d]+off[d] < a.lo[d] || part.Hi[d]+off[d] > a.hi[d] {
				err = fmt.Errorf("shard accesses %s@%v over %v outside its local storage %v",
					array, off, part, &sema.Region{Lo: a.lo, Hi: a.hi})
				return
			}
		}
	})
	return err
}

// fail records err as the run's fault and unwinds.
func (m *Machine) fail(err error) signal {
	if m.fault == nil {
		m.fault = err
	}
	return sigFault
}

// shardNest completes a nest on a shard. sweep has initialised the
// reduction targets and accumulated this processor's partials into
// their slots; the partials then all-combine and every processor
// stores the same result. A nest without reductions combines nothing,
// which is a barrier: statement groups are the distributed machine's
// synchronisation boundaries.
func (m *Machine) shardNest(x *lir.Nest, sweep execFn) execFn {
	var slots []int
	var rules []*kernel.Entry
	for _, s := range x.Body {
		if s.IsReduce {
			slots = append(slots, m.slotIdx[s.Target])
			rules = append(rules, reductions[s.Op])
		}
	}
	fold := func(acc, next []float64) {
		for j := range acc {
			acc[j] = rules[j].F2(acc[j], next[j])
		}
	}
	sh := m.shard
	part, spare := make([]float64, len(slots)), make([]float64, len(slots))
	return func(m *Machine) signal {
		if s := sweep(m); s != sigNext {
			return s
		}
		part, spare = spare, part // see Shard.AllCombine
		for j, slot := range slots {
			part[j] = m.slots[slot]
		}
		all, err := sh.AllCombine(part, fold)
		if err != nil {
			return m.fail(err)
		}
		for j, slot := range slots {
			m.slots[slot] = all[j]
		}
		return sigNext
	}
}

// shardPartialReduce is a dimensional reduction on a shard. A
// projection target may belong to another processor, so partials
// accumulate in a dense buffer over the destination slab, the buffers
// all-combine, and each processor stores the destination elements it
// owns.
func (m *Machine) shardPartialReduce(x *lir.PartialReduce, order dep.LoopStructure, body value, dst ref, collapsed []bool) execFn {
	rank := x.Region.Rank()
	dest := x.Dest
	slab := &arrayStore{lo: dest.Lo, strides: make([]int, rank)}
	size := 1
	for d := rank - 1; d >= 0; d-- {
		slab.strides[d] = size
		size *= dest.Extent(d)
	}
	flat := m.ref(slab, air.Zero(rank), nil).project(collapsed, dest)
	f, id := reductions[x.Op].F2, x.Op.Identity()
	fold := func(acc, next []float64) { combineInto(f, acc, 0, 1, next) }
	source, owned := m.portion(x.Region), m.portion(dest)
	steps, _ := lir.Work(x, source) // part of x.Region, whose work fits
	buf, spare := make([]float64, size), make([]float64, size)
	var all []float64
	accumulate := m.sweep(source, order, []stripFn{func(m *Machine, j, n int) {
		combineInto(f, buf, flat.pos(m, j), flat.step, body.vec(m, j, n))
	}}, false)
	store := m.sweep(owned, order, []stripFn{m.store(dst, value{own: -1, vec: func(m *Machine, j, n int) []float64 {
		p := flat.pos(m, j)
		return all[p : p+n]
	}})}, false)
	sh := m.shard
	return func(m *Machine) signal {
		if !m.charge(steps) {
			return sigFault
		}
		buf, spare = spare, buf // see Shard.AllCombine
		for i := range buf {
			buf[i] = id
		}
		accumulate(m)
		if m.fault != nil {
			return sigFault
		}
		var err error
		if all, err = sh.AllCombine(buf, fold); err != nil {
			return m.fail(err)
		}
		store(m)
		if m.fault != nil {
			return sigFault
		}
		return sigNext
	}
}

// shardComm executes a Comm node on a shard: a real ghost-cell
// exchange over the array's local storage.
func (m *Machine) shardComm(x *lir.Comm) (execFn, error) {
	a, ok := m.arrays[x.Array]
	if !ok {
		return nil, fmt.Errorf("exchange of unknown array %s", x.Array)
	}
	exchange, err := m.shard.Comm(x, a.data)
	if err != nil {
		return nil, err
	}
	return func(m *Machine) signal {
		if !m.step() {
			return sigFault
		}
		if err := exchange(); err != nil {
			return m.fail(err)
		}
		return sigNext
	}, nil
}
