package vm

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/dep"
	"repro/internal/kernel"
	"repro/internal/lir"
	"repro/internal/sema"
)

// ---------------------------------------------------------------------------
// Statement compilation

func (m *Machine) compileNodes(nodes []lir.Node) ([]execFn, error) {
	var out []execFn
	for _, n := range nodes {
		fn, err := m.compileNode(n)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

// notRule is the operator table's ! (internal/kernel), which gives 0
// exactly where a value is true: an if's or a while's condition holds
// where its ! is 0, so truth has one definition.
func notRule() func(float64) float64 { return kernel.Lookup("!", 1).F1 }

func (m *Machine) compileNode(n lir.Node) (execFn, error) {
	switch x := n.(type) {
	case *lir.Nest:
		return m.compileNest(x)
	case *lir.ScalarAssign:
		slot, ok := m.slotIdx[x.LHS]
		if !ok {
			return nil, fmt.Errorf("unknown scalar %s", x.LHS)
		}
		rhs, flops, err := m.compileScalar(x.RHS)
		if err != nil {
			return nil, err
		}
		return func(m *Machine) signal {
			if !m.step() {
				return sigFault
			}
			if m.tracer != nil && flops > 0 {
				m.tracer.Flops(flops)
			}
			m.slots[slot] = rhs(m)
			return sigNext
		}, nil
	case *lir.Loop:
		return m.compileLoop(x)
	case *lir.While:
		cond, _, err := m.compileScalar(x.Cond)
		if err != nil {
			return nil, err
		}
		body, err := m.compileNodes(x.Body)
		if err != nil {
			return nil, err
		}
		not := notRule()
		return func(m *Machine) signal {
			for not(cond(m)) == 0 {
				if !m.step() {
					return sigFault
				}
				for _, fn := range body {
					if s := fn(m); s != sigNext {
						return s
					}
				}
			}
			return sigNext
		}, nil
	case *lir.If:
		cond, _, err := m.compileScalar(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := m.compileNodes(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := m.compileNodes(x.Else)
		if err != nil {
			return nil, err
		}
		not := notRule()
		return func(m *Machine) signal {
			if !m.step() {
				return sigFault
			}
			branch := els
			if not(cond(m)) == 0 {
				branch = then
			}
			for _, fn := range branch {
				if s := fn(m); s != sigNext {
					return s
				}
			}
			return sigNext
		}, nil
	case *lir.PartialReduce:
		return m.compilePartialReduce(x)
	case *lir.Comm:
		return m.compileComm(x)
	case *lir.Call:
		return m.compileCall(x)
	case *lir.Return:
		if x.Value == nil {
			return func(m *Machine) signal {
				if !m.step() {
					return sigFault
				}
				return sigReturn
			}, nil
		}
		val, _, err := m.compileScalar(x.Value)
		if err != nil {
			return nil, err
		}
		if m.curResult < 0 {
			return nil, fmt.Errorf("return with value in a procedure without result")
		}
		slot := m.curResult
		return func(m *Machine) signal {
			if !m.step() {
				return sigFault
			}
			m.slots[slot] = val(m)
			return sigReturn
		}, nil
	case *lir.Writeln:
		return m.compileWriteln(x)
	}
	return nil, fmt.Errorf("unknown node %T", n)
}

func (m *Machine) compileLoop(x *lir.Loop) (execFn, error) {
	slot, ok := m.slotIdx[x.Var]
	if !ok {
		return nil, fmt.Errorf("unknown loop variable %s", x.Var)
	}
	lo, _, err := m.compileScalar(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, _, err := m.compileScalar(x.Hi)
	if err != nil {
		return nil, err
	}
	body, err := m.compileNodes(x.Body)
	if err != nil {
		return nil, err
	}
	down := x.Down
	return func(m *Machine) signal {
		a := int64(lo(m))
		b := int64(hi(m))
		if down {
			for v := a; v >= b; v-- {
				if !m.step() {
					return sigFault
				}
				m.slots[slot] = float64(v)
				for _, fn := range body {
					if s := fn(m); s != sigNext {
						return s
					}
				}
			}
		} else {
			for v := a; v <= b; v++ {
				if !m.step() {
					return sigFault
				}
				m.slots[slot] = float64(v)
				for _, fn := range body {
					if s := fn(m); s != sigNext {
						return s
					}
				}
			}
		}
		return sigNext
	}, nil
}

func (m *Machine) compileCall(x *lir.Call) (execFn, error) {
	cp, ok := m.procs[x.Proc]
	if !ok {
		return nil, fmt.Errorf("unknown procedure %s", x.Proc)
	}
	if len(x.Args) != len(cp.params) {
		return nil, fmt.Errorf("%s: %d args for %d params", x.Proc, len(x.Args), len(cp.params))
	}
	var args []evalFn
	for _, a := range x.Args {
		fn, _, err := m.compileScalar(a)
		if err != nil {
			return nil, err
		}
		args = append(args, fn)
	}
	target := -1
	if x.Target != "" {
		slot, ok := m.slotIdx[x.Target]
		if !ok {
			return nil, fmt.Errorf("unknown call target %s", x.Target)
		}
		target = slot
	}
	params := cp.params
	// One argument vector per call site: recursion is rejected at
	// lowering, so a site is never re-entered while its values are live.
	vals := make([]float64, len(args))
	return func(m *Machine) signal {
		if !m.step() {
			return sigFault
		}
		// Evaluate args before binding (no aliasing of param slots by
		// the caller).
		for i, fn := range args {
			vals[i] = fn(m)
		}
		for i, slot := range params {
			m.slots[slot] = vals[i]
		}
		for _, fn := range cp.body {
			s := fn(m)
			if s == sigFault {
				return sigFault
			}
			if s == sigReturn {
				break
			}
		}
		if target >= 0 && cp.result >= 0 {
			m.slots[target] = m.slots[cp.result]
		}
		return sigNext
	}, nil
}

func (m *Machine) compileWriteln(x *lir.Writeln) (execFn, error) {
	type part struct {
		str  string
		eval evalFn
	}
	var parts []part
	for _, a := range x.Args {
		if a.Expr != nil {
			fn, _, err := m.compileScalar(a.Expr)
			if err != nil {
				return nil, err
			}
			parts = append(parts, part{eval: fn})
		} else {
			parts = append(parts, part{str: a.Str})
		}
	}
	return func(m *Machine) signal {
		if !m.step() {
			return sigFault
		}
		if m.out == nil {
			return sigNext
		}
		for i, p := range parts {
			if i > 0 {
				fmt.Fprint(m.out, " ")
			}
			if p.eval != nil {
				fmt.Fprintf(m.out, "%g", p.eval(m))
			} else {
				fmt.Fprint(m.out, p.str)
			}
		}
		fmt.Fprintln(m.out)
		return sigNext
	}, nil
}

func (m *Machine) compileComm(x *lir.Comm) (execFn, error) {
	if m.shard != nil {
		return m.shardComm(x)
	}
	// On the sequential VM arrays are whole, so the halo values are
	// already in place; the primitive only reports its traffic to the
	// tracer (the machine model charges it).
	elems := haloElems(x.Reg, x.Off)
	arr, off, phase, msgID := x.Array, x.Off.Clone(), x.Phase, x.MsgID
	return func(m *Machine) signal {
		if !m.step() {
			return sigFault
		}
		if m.tracer != nil {
			m.tracer.Comm(arr, off, elems, phase, msgID)
		}
		return sigNext
	}, nil
}

// haloElems is the number of elements a ghost exchange for the given
// offset moves: the slab of the region surface with thickness |off_d|
// in each displaced dimension.
func haloElems(reg *sema.Region, off air.Offset) int {
	n := 1
	for d := 0; d < reg.Rank(); d++ {
		if off[d] != 0 {
			w := off[d]
			if w < 0 {
				w = -w
			}
			n *= w
		} else {
			n *= reg.Extent(d)
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Sweeps: loop nests executed a strip at a time
//
// A Nest is a fused cluster of array statements in program order. Array
// semantics run statement a entirely before statement b > a, so every
// dependence inside the nest goes from an earlier statement to a later
// one — or stays inside one statement as an anti or output dependence,
// since an array statement reads only old values — and
// FIND-LOOP-STRUCTURE guarantees its distance is lexicographically
// non-negative in the signed loop order. The machine strip-mines the
// innermost loop and distributes the body over the strip, which
// reorders the iteration space to (outer indices, strip, statement,
// position in strip). A dependence (a, p) → (b, q) with q − p ≥ 0 lands
// in the same or a later strip; in the same strip a ≤ b, and a = b is
// covered by "evaluate the whole right-hand side, then store". So any
// nest the partitioner may emit is legal strip-wise, at every width and
// in either loop direction, and width 1 is the element-at-a-time order.

// stripWidth is the number of innermost-loop iterations a sweep runs per
// dispatch. Measured with the packed kernels (DESIGN.md §32), 64 is
// slower and 256 no faster beyond the runs' spread, and at 128 a fused
// nest's strip buffers fit in the L1 data cache, so it is a constant,
// not an option. A traced machine runs at width 1, which reports every
// Access, Flops and Reduce in element order.
const stripWidth = kernel.Width

// stripFn runs one statement over elements j..j+n-1 of the current
// strip. Element i of a strip sits at index m.idx[inner] + dir·i of the
// innermost loop's dimension; the outer loops hold m.idx elsewhere.
type stripFn func(m *Machine, j, n int)

// vecFn evaluates an expression over elements j..j+n-1 of the current
// strip. The result is a scratch buffer, a register, or a view of array
// storage; it is valid until the statement's next store.
type vecFn func(m *Machine, j, n int) []float64

// nestCtx is the sweep an expression is being compiled into; nil in a
// scalar context.
type nestCtx struct {
	inner, dir int            // the strip's dimension and its direction (±1)
	length     int            // strip buffer length: min(width, inner extent)
	regs       map[string]int // contracted arrays and preload registers → buffer
}

// loopOf decodes one entry of a loop structure vector: the dimension a
// loop runs over and its direction.
func loopOf(pi int) (d, dir int) {
	if pi < 0 {
		return -pi - 1, -1
	}
	return pi - 1, 1
}

// enter opens the compile context of a sweep over region whose
// innermost loop is order's last entry; leave closes it and frees the
// sweep's registers.
func (m *Machine) enter(region *sema.Region, order dep.LoopStructure) {
	c := &nestCtx{regs: map[string]int{}}
	c.inner, c.dir = loopOf(order[len(order)-1])
	c.length = max(min(m.width, region.Extent(c.inner)), 0)
	m.nest = c
}

func (m *Machine) leave() {
	for _, buf := range m.nest.regs {
		m.release(buf)
	}
	m.nest = nil
}

// acquire reserves a strip buffer for the sweep being compiled. Buffers
// are pooled per machine and allocated when compilation ends, each at
// the longest strip of any sweep that used it.
func (m *Machine) acquire() int {
	if k := len(m.free); k > 0 {
		buf := m.free[k-1]
		m.free = m.free[:k-1]
		m.bufLen[buf] = max(m.bufLen[buf], m.nest.length)
		return buf
	}
	m.bufLen = append(m.bufLen, m.nest.length)
	return len(m.bufLen) - 1
}

// release returns a buffer to the pool once its value has been consumed
// (buf < 0: the value was a view and owned nothing).
func (m *Machine) release(buf int) {
	if buf >= 0 {
		m.free = append(m.free, buf)
	}
}

// reg returns the strip buffer standing in for a contracted array or a
// scalar-replacement preload in the current sweep.
func (m *Machine) reg(name string) int {
	buf, ok := m.nest.regs[name]
	if !ok {
		buf = m.acquire()
		m.nest.regs[name] = buf
	}
	return buf
}

// sweep builds the loop nest over region per the structure vector: the
// outer loops set m.idx, the innermost runs stmts a strip at a time. A
// split sweep's outermost loop runs only iterations m.rows[0] to
// m.rows[1]-1 of its machine (split.go); a split sweep of rank 1 strips
// from its chunk's first element.
func (m *Machine) sweep(region *sema.Region, order dep.LoopStructure, stmts []stripFn, split bool) func(*Machine) {
	inner, dir, w := m.nest.inner, m.nest.dir, m.width
	first, extent := region.Lo[inner], region.Extent(inner)
	if dir < 0 {
		first = region.Hi[inner]
	}
	// Every row polls the context (set). The strip loop polls only in
	// a one-dimensional nest, whose only row is the whole sweep.
	outer := len(order) == 1
	run := func(m *Machine) {
		for done := 0; done < extent; done += w {
			if outer && m.ctx != nil && done%ctxPollInterval < w && m.cancelled() {
				return
			}
			m.idx[inner] = first + dir*done
			n := min(w, extent-done)
			for _, st := range stmts {
				st(m, 0, n)
			}
		}
	}
	if split && outer {
		run = func(m *Machine) {
			for done, end := m.rows[0], m.rows[1]; done < end; done += w {
				if m.ctx != nil && done%ctxPollInterval < w && m.cancelled() {
					return
				}
				m.idx[inner] = first + dir*done
				n := min(w, end-done)
				for _, st := range stmts {
					st(m, 0, n)
				}
			}
		}
	}
	for k := len(order) - 2; k >= 0; k-- {
		d, dir := loopOf(order[k])
		first, extent := region.Lo[d], region.Extent(d)
		if dir < 0 {
			first = region.Hi[d]
		}
		inner := run
		if split && k == 0 {
			run = func(m *Machine) {
				for i := m.rows[0]; i < m.rows[1]; i++ {
					if m.ctx != nil && m.cancelled() {
						return
					}
					m.idx[d] = first + dir*i
					inner(m)
				}
			}
			break
		}
		run = func(m *Machine) {
			for i, left := first, extent; left > 0; i, left = i+dir, left-1 {
				if m.ctx != nil && m.cancelled() {
					return
				}
				m.idx[d] = i
				inner(m)
			}
		}
	}
	return run
}

// clip restricts a statement to its guard: the row is skipped when an
// outer index is outside the guard, otherwise the strip is intersected
// with the guard's range along the strip dimension. Only dimensions
// where the guard differs from the nest region are looked at. Positions
// stay relative to the strip's base, so the registers of statements
// with different guards line up.
func (m *Machine) clip(guard, nest *sema.Region, st stripFn) stripFn {
	if guard == nil || guard.Equal(nest) {
		return st
	}
	type check struct{ d, lo, hi int }
	var outer []check
	inner, dir := m.nest.inner, m.nest.dir
	for d := range nest.Lo {
		if d != inner && (guard.Lo[d] != nest.Lo[d] || guard.Hi[d] != nest.Hi[d]) {
			outer = append(outer, check{d, guard.Lo[d], guard.Hi[d]})
		}
	}
	lo, hi := guard.Lo[inner], guard.Hi[inner]
	return func(m *Machine, j, n int) {
		for _, c := range outer {
			if m.idx[c.d] < c.lo || m.idx[c.d] > c.hi {
				return
			}
		}
		from, to := lo-m.idx[inner], hi-m.idx[inner]
		if dir < 0 {
			from, to = -to, -from
		}
		from, to = max(from, j), min(to, j+n-1)
		if from <= to {
			st(m, from, to-from+1)
		}
	}
}

func (m *Machine) compileNest(x *lir.Nest) (execFn, error) {
	// A shard sweeps its owned portion of the region; the clipped
	// bounds are captured by the loop closures exactly as whole ones.
	region := x.Region
	if m.shard != nil {
		if err := m.checkLocal(x); err != nil {
			return nil, err
		}
		region = m.portion(x.Region)
	}
	m.enter(region, x.Order)
	defer m.leave()
	var stmts []stripFn
	var targets []int // reduction target slots, set to the identity before the sweep
	var ids []float64
	var ops []air.ReduceOp

	// Scalar-replacement preloads run first in every strip.
	for i, pl := range x.Preloads {
		var site *absint.Site
		if m.bounds != nil {
			site = m.bounds.PreloadSite(x, i)
		}
		load, err := m.load(pl.Array, pl.Off, site)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, m.assign(m.reg(pl.Var), load))
		m.release(load.own)
	}

	for _, s := range x.Body {
		// The destination an operator at the root of the right-hand side
		// may write into (compileInto): a contracted statement's register,
		// taken before the right-hand side compiles so that none of its
		// scratch buffers can be the register, or the array row of an
		// ascending, unit-stride, unfaulted, untraced store. A right-hand
		// side that reads its own left-hand side keeps the copy: its loads
		// may view what the root would be writing.
		var into vecFn
		var dst ref
		reg := -1
		switch {
		case s.IsReduce:
		case s.Contracted:
			reg = m.reg(s.LHS)
			into = register(reg).vec
		default:
			var site *absint.Site
			if m.bounds != nil {
				site = m.bounds.Store(s)
			}
			a, err := m.array(s.LHS)
			if err != nil {
				return nil, err
			}
			dst = m.ref(a, air.Zero(region.Rank()), site)
			if dst.step == 1 && dst.shift == 0 && m.tracer == nil {
				into = dst.view()
			}
		}
		if into != nil && reads(s.RHS, s.LHS) {
			into = nil
		}
		rhs, err := m.compileInto(s.RHS, into)
		if err != nil {
			return nil, err
		}
		rhs = m.spread(rhs)
		var st stripFn
		switch {
		case s.IsReduce:
			slot, ok := m.slotIdx[s.Target]
			if !ok {
				return nil, fmt.Errorf("unknown reduction target %s", s.Target)
			}
			targets, ids, ops = append(targets, slot), append(ids, s.Op.Identity()), append(ops, s.Op)
			st = fold(slot, reductions[s.Op], rhs)
		case rhs.direct:
			m.directs++
			st = written(rhs)
		case s.Contracted:
			st = m.assign(reg, rhs)
		default:
			st = m.store(dst, rhs)
		}
		m.release(rhs.own)
		stmts = append(stmts, m.clip(s.Guard, x.Region, st))
	}

	// A whole-program, untraced machine splits what the one rule says
	// splits (split.go).
	split := m.shard == nil && m.tracer == nil && m.bounds.Splits(m.prog, x)
	run := m.sweep(region, x.Order, stmts, split)
	steps, err := lir.Work(x, region)
	if err != nil {
		return nil, err
	}
	if split {
		m.splits++
		outer, _ := loopOf(x.Order[0])
		rows := region.Extent(outer)
		return func(m *Machine) signal {
			if !m.charge(steps) {
				return sigFault
			}
			return m.split(run, rows, targets, ids, ops)
		}, nil
	}
	sweep := func(m *Machine) signal {
		if m.charge(steps) {
			for i, slot := range targets {
				m.slots[slot] = ids[i]
			}
			run(m)
		}
		if m.fault != nil {
			return sigFault // refused by charge, or cancelled within the sweep
		}
		if m.tracer != nil {
			for range targets {
				m.tracer.Reduce()
			}
		}
		return sigNext
	}
	if m.shard != nil {
		return m.shardNest(x, sweep), nil
	}
	return sweep, nil
}

// written runs a statement whose right-hand side writes its destination
// itself (value.direct).
func written(rhs value) stripFn {
	return func(m *Machine, j, n int) {
		m.flops(rhs.flops, n)
		rhs.vec(m, j, n)
	}
}

// reads reports whether e reads the named array.
func reads(e air.Expr, array string) bool {
	for _, r := range air.Refs(e) {
		if r.Array == array {
			return true
		}
	}
	return false
}

// assign copies the right-hand side into a register. It is always a
// copy: a view the value came from may be overwritten by a later
// statement of the same strip.
func (m *Machine) assign(reg int, rhs value) stripFn {
	return func(m *Machine, j, n int) {
		m.flops(rhs.flops, n)
		copy(m.bufs[reg][j:j+n], rhs.vec(m, j, n))
	}
}

// store writes the right-hand side to array storage. The unit-stride
// ascending case is a memmove, so a statement that shifts an array onto
// itself is right by construction.
func (m *Machine) store(dst ref, rhs value) stripFn {
	return func(m *Machine, j, n int) {
		m.flops(rhs.flops, n)
		v, p := rhs.vec(m, j, n), dst.pos(m, j)
		if dst.step == 1 && dst.shift == 0 && m.tracer == nil {
			copy(dst.a.data[p:p+n], v)
			return
		}
		for _, x := range v {
			dst.a.data[dst.touch(m, p, true)] = x
			p += dst.step
		}
	}
}

// fold accumulates the strip into a full reduction's target slot with
// its operator's fold. + and × fold element by element in loop order
// (the bit pattern of a sum or a product is its order); max's and
// min's result does not depend on the order (DESIGN.md §32).
func fold(slot int, e *kernel.Entry, rhs value) stripFn {
	flops, f := rhs.flops+1, strips(e).Fold
	return func(m *Machine, j, n int) {
		m.flops(flops, n)
		m.slots[slot] = f(m.slots[slot], rhs.vec(m, j, n))
	}
}

// flops reports a statement-strip's operations to the tracer.
func (m *Machine) flops(perElem int64, n int) {
	if m.tracer != nil && perElem > 0 {
		m.tracer.Flops(perElem * int64(n))
	}
}

// reductions are the reductions' operators.
var reductions = [...]*kernel.Entry{
	air.ReduceSum: kernel.Lookup("+", 2), air.ReduceProd: kernel.Lookup("*", 2),
	air.ReduceMax: kernel.Lookup("max", 2), air.ReduceMin: kernel.Lookup("min", 2),
}

// combineInto accumulates v into dst[p], dst[p+step], ... with a
// reduction's scalar rule f: a reduction's strip into its projections,
// or one processor's partials into another's.
func combineInto(f func(x, y float64) float64, dst []float64, p, step int, v []float64) {
	for _, x := range v {
		dst[p] = f(dst[p], x)
		p += step
	}
}

// compilePartialReduce lowers a dimensional reduction: initialize the
// destination slab to the identity, then sweep the source region in
// row-major order accumulating each element into its projection
// (collapsed dimensions pin to the destination's bound).
func (m *Machine) compilePartialReduce(x *lir.PartialReduce) (execFn, error) {
	rank := x.Region.Rank()
	order := make(dep.LoopStructure, rank)
	for k := range order {
		order[k] = k + 1
	}
	if m.shard != nil {
		if err := m.checkLocal(x); err != nil {
			return nil, err
		}
	}
	m.enter(x.Region, order)
	defer m.leave()
	body, err := m.compileExpr(x.Body)
	if err != nil {
		return nil, err
	}
	body = m.spread(body)
	defer m.release(body.own)
	var loadSite, storeSite *absint.Site
	if m.bounds != nil {
		loadSite, storeSite = m.bounds.ReduceLoad(x), m.bounds.ReduceStore(x)
	}
	steps, err := lir.Work(x, x.Region)
	if err != nil {
		return nil, err
	}
	a, err := m.array(x.LHS)
	if err != nil {
		return nil, err
	}
	dst := m.ref(a, air.Zero(rank), storeSite)
	collapsed := make([]bool, rank)
	for k := 0; k < rank; k++ {
		collapsed[k] = x.Dest.Extent(k) == 1 && x.Region.Extent(k) != 1
	}
	if m.shard != nil {
		return m.shardPartialReduce(x, order, body, dst, collapsed), nil
	}
	op, id := x.Op, x.Op.Identity()
	fill := m.spread(uniform(func(*Machine) float64 { return id }, 0))
	defer m.release(fill.own)
	init := m.sweep(x.Dest, order, []stripFn{m.store(dst, fill)}, false)
	// The accumulation reads and writes the projected element through
	// its own two sites; a faulted site or a traced run goes element by
	// element, as a load and a store do.
	into := dst.project(collapsed, x.Dest)
	from := into
	from.shift = 0
	if loadSite != nil {
		from.shift = loadSite.FaultShift
	}
	accumulate := m.sweep(x.Region, order, []stripFn{func(m *Machine, j, n int) {
		v, data, f := body.vec(m, j, n), a.data, reductions[op].F2
		m.flops(body.flops+1, n)
		p := into.pos(m, j)
		if from.shift == 0 && into.shift == 0 && m.tracer == nil {
			combineInto(f, data, p, into.step, v)
			return
		}
		for _, x := range v {
			r := f(data[from.touch(m, p, false)], x)
			data[into.touch(m, p, true)] = r
			p += into.step
		}
	}}, false)
	return func(m *Machine) signal {
		if m.charge(steps) {
			init(m)
			accumulate(m)
		}
		if m.fault != nil {
			return sigFault
		}
		if m.tracer != nil {
			m.tracer.Reduce()
		}
		return sigNext
	}, nil
}

// ---------------------------------------------------------------------------
// Array references

// ref is a compiled array reference: where the elements of the current
// strip live in the array's row-major storage.
type ref struct {
	a     *arrayStore
	base  int    // position of index 0 in every dimension, offset applied
	mul   [4]int // storage distance per unit of m.idx[d]
	step  int    // storage distance between consecutive strip elements
	shift int    // seeded-fault displacement (absint.Site.FaultShift)
}

func (m *Machine) ref(a *arrayStore, off air.Offset, site *absint.Site) ref {
	r := ref{a: a, step: m.nest.dir * a.strides[m.nest.inner]}
	for d, st := range a.strides {
		r.base += (off[d] - a.lo[d]) * st
		r.mul[d] = st
	}
	if site != nil {
		r.shift = site.FaultShift
	}
	return r
}

func (m *Machine) array(name string) (*arrayStore, error) {
	if a, ok := m.arrays[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("unknown array %s", name)
}

// project pins the collapsed dimensions of a partial reduction to the
// destination's bound, so that pos yields the element a source index
// accumulates into.
func (r ref) project(collapsed []bool, dest *sema.Region) ref {
	for d, c := range collapsed {
		if c {
			r.base += dest.Lo[d] * r.mul[d]
			r.mul[d] = 0
		}
	}
	if collapsed[len(collapsed)-1] {
		r.step = 0
	}
	return r
}

// pos is the storage position of strip element j at the current indices.
func (r *ref) pos(m *Machine, j int) int {
	p := r.base + j*r.step
	for d := range r.a.strides {
		p += m.idx[d] * r.mul[d]
	}
	return p
}

// view is an ascending, unit-stride, unfaulted reference's elements over
// the strip as a sub-slice of the storage — no copy, and one bounds
// check covers the strip: a load's value, or the destination an
// operator writes into (compileInto).
func (r ref) view() vecFn {
	return func(m *Machine, j, n int) []float64 {
		p := r.pos(m, j)
		return r.a.data[p : p+n : p+n]
	}
}

// touch finishes one element access at position p: a seeded-fault site
// is displaced by its wrapped shift, element by element, so the wrong
// evidence is a visible wrong answer rather than a wild access; a traced
// machine reports the address. It returns the position to use.
func (r *ref) touch(m *Machine, p int, write bool) int {
	if r.shift != 0 {
		p = faultPos(p, r.shift, len(r.a.data))
	}
	if m.tracer != nil {
		m.tracer.Access(r.a.base+int64(p)*8, write)
	}
	return p
}

// faultPos displaces a seeded-fault access by the injected evidence
// shift, wrapped into the storage so the deliberate miscompile reads a
// deterministic wrong element rather than unowned memory.
func faultPos(p, shift, n int) int {
	p += shift
	if p < 0 {
		p += n
	} else if p >= n {
		p -= n
	}
	return p
}

// load compiles an array read over the strip. Ascending and unit-stride
// it is a sub-slice of the storage — no copy, and one bounds check
// covers the strip; a descending or strided strip (a permuted loop
// structure), a faulted site and a traced run gather element by element.
func (m *Machine) load(name string, off air.Offset, site *absint.Site) (value, error) {
	a, err := m.array(name)
	if err != nil {
		return value{}, err
	}
	r := m.ref(a, off, site)
	if r.step == 1 && r.shift == 0 && m.tracer == nil {
		return value{own: -1, vec: r.view()}, nil
	}
	buf := m.acquire()
	return value{own: buf, vec: func(m *Machine, j, n int) []float64 {
		out, p := m.bufs[buf][:n], r.pos(m, j)
		for i := range out {
			out[i] = r.a.data[r.touch(m, p, false)]
			p += r.step
		}
		return out
	}}, nil
}

// ---------------------------------------------------------------------------
// Expression compilation

// value is a compiled expression: a uniform, which has the same value
// at every element of a strip (constants, scalars, outer-loop indices
// and any operator over uniforms — so sin(0.1*index1) costs one call
// per row), or a vector over the strip. Scalar contexts compile with
// the same function and only ever see uniforms.
type value struct {
	uni   evalFn
	vec   vecFn
	own   int   // the scratch buffer vec fills; -1 for a uniform or a view
	flops int64 // static operation count per element
	// direct: vec writes the statement's destination (compileInto) and
	// returns it.
	direct bool
}

func uniform(fn evalFn, flops int64) value { return value{uni: fn, own: -1, flops: flops} }

// compileScalar compiles an expression of a scalar context.
func (m *Machine) compileScalar(e air.Expr) (evalFn, int64, error) {
	v, err := m.compileExpr(e)
	return v.uni, v.flops, err
}

// spread turns a uniform into a vector for a statement that needs one
// element per position (a uniform reduction operand is still folded n
// times: n·u is not the same float).
func (m *Machine) spread(v value) value {
	if v.uni == nil {
		return v
	}
	buf, u := m.acquire(), v.uni
	return value{own: buf, flops: v.flops, vec: func(m *Machine, j, n int) []float64 {
		out, x := m.bufs[buf][:n], u(m)
		for i := range out {
			out[i] = x
		}
		return out
	}}
}

func (m *Machine) compileExpr(e air.Expr) (value, error) { return m.compileInto(e, nil) }

// compileInto compiles an expression. When into is not nil and the
// expression is an operator over vectors, the operator writes its
// result to the view into gives of the statement's destination instead
// of to a scratch buffer (value.direct). Only a right-hand side's root
// gets a destination: its operands are read while it writes.
func (m *Machine) compileInto(e air.Expr, into vecFn) (value, error) {
	switch x := e.(type) {
	case *air.ConstExpr:
		v := x.Val
		return uniform(func(*Machine) float64 { return v }, 0), nil
	case *air.ScalarExpr:
		if m.nest != nil {
			if buf, ok := m.nest.regs[x.Name]; ok {
				return register(buf), nil
			}
		}
		slot, ok := m.slotIdx[x.Name]
		if !ok {
			return value{}, fmt.Errorf("unknown scalar %s", x.Name)
		}
		return uniform(func(m *Machine) float64 { return m.slots[slot] }, 0), nil
	case *air.RefExpr:
		if m.nest == nil {
			return value{}, fmt.Errorf("array %s referenced outside a loop nest", x.Ref.Array)
		}
		if info := m.prog.Source.Arrays[x.Ref.Array]; info != nil && info.Contracted {
			return register(m.reg(x.Ref.Array)), nil
		}
		var site *absint.Site
		if m.bounds != nil {
			site = m.bounds.Read(x)
		}
		return m.load(x.Ref.Array, x.Ref.Off, site)
	case *air.IndexExpr:
		d := x.Dim - 1
		if m.nest == nil || d != m.nest.inner {
			return uniform(func(m *Machine) float64 { return float64(m.idx[d]) }, 0), nil
		}
		buf, dir := m.acquire(), m.nest.dir
		return value{own: buf, vec: func(m *Machine, j, n int) []float64 {
			out, at := m.bufs[buf][:n], m.idx[d]+dir*j
			for i := range out {
				out[i] = float64(at)
				at += dir
			}
			return out
		}}, nil
	case *air.BinExpr:
		if e := kernel.Lookup(x.Op.String(), 2); e != nil {
			return m.apply2(e, x.X, x.Y, 1, into)
		}
		return value{}, fmt.Errorf("unknown operator %v", x.Op)
	case *air.UnExpr:
		if e := kernel.Lookup(x.Op.String(), 1); e != nil {
			return m.apply1(e, x.X, 1, into)
		}
		return value{}, fmt.Errorf("unknown operator %v", x.Op)
	case *air.CallExpr:
		// Transcendental calls cost more than one op.
		switch e := kernel.Lookup(x.Name, len(x.Args)); {
		case e == nil:
			return value{}, fmt.Errorf("unknown builtin %s/%d", x.Name, len(x.Args))
		case len(x.Args) == 1:
			return m.apply1(e, x.Args[0], 4, into)
		default:
			return m.apply2(e, x.Args[0], x.Args[1], 4, into)
		}
	}
	return value{}, fmt.Errorf("unknown expression %T", e)
}

// register is a read of a contracted array or a preload: a view of its
// strip buffer.
func register(buf int) value {
	return value{own: -1, vec: func(m *Machine, j, n int) []float64 { return m.bufs[buf][j : j+n] }}
}

// packed is whether the machines built from now on run the entries'
// packed kernels (where kernel.HasPacked) or their Go loops; only
// export_test.go changes it.
var packed = true

// strips returns the kernels of e that a machine built now runs.
func strips(e *kernel.Entry) *kernel.Kernels {
	if packed {
		return &e.Packed
	}
	return &e.Go
}

// apply1 compiles a one-operand operator: its scalar rule on a
// uniform, its kernel over a vector, into the destination into views
// when there is one, else in place when the operand owns its buffer.
func (m *Machine) apply1(op *kernel.Entry, e air.Expr, cost int64, into vecFn) (value, error) {
	x, err := m.compileExpr(e)
	if err != nil {
		return value{}, err
	}
	f, k := op.F1, strips(op).V
	if u := x.uni; u != nil {
		return uniform(func(m *Machine) float64 { return f(u(m)) }, x.flops+cost), nil
	}
	out, xv := x.own, x.vec
	if into != nil {
		m.release(out)
		return value{own: -1, flops: x.flops + cost, direct: true, vec: func(m *Machine, j, n int) []float64 {
			d := into(m, j, n)
			k(d, xv(m, j, n))
			return d
		}}, nil
	}
	if out < 0 {
		out = m.acquire()
	}
	return value{own: out, flops: x.flops + cost, vec: func(m *Machine, j, n int) []float64 {
		d := m.bufs[out][:n]
		k(d, xv(m, j, n))
		return d
	}}, nil
}

// apply2 compiles a two-operand operator. The result goes to the
// destination into views when there is one, else it reuses an operand's
// scratch buffer when it has one (every kernel is element-wise, so it
// may overwrite its input); an operand buffer the result does not reuse
// returns to the pool for the nodes evaluated after this one. Every
// machine shares the entry, so apply2 only reads it.
func (m *Machine) apply2(op *kernel.Entry, ex, ey air.Expr, cost int64, into vecFn) (value, error) {
	x, err := m.compileExpr(ex)
	if err != nil {
		return value{}, err
	}
	y, err := m.compileExpr(ey)
	if err != nil {
		return value{}, err
	}
	flops, f := x.flops+y.flops+cost, op.F2
	xu, yu, xv, yv := x.uni, y.uni, x.vec, y.vec
	if xu != nil && yu != nil {
		return uniform(func(m *Machine) float64 { return f(xu(m), yu(m)) }, flops), nil
	}
	k, decided := strips(op), op.Decided
	if decided != nil && xu != nil {
		x = m.spread(x)
		xu, xv = nil, x.vec
	}
	if into != nil {
		m.release(x.own)
		m.release(y.own)
		return value{own: -1, flops: flops, direct: true, vec: direct2(k, decided, into, xu, yu, xv, yv)}, nil
	}
	out := x.own
	switch {
	case out < 0 && y.own < 0:
		out = m.acquire()
	case out < 0:
		out = y.own
	default:
		m.release(y.own)
	}
	v := value{own: out, flops: flops}
	switch {
	case yu != nil:
		v.vec = func(m *Machine, j, n int) []float64 {
			d := m.bufs[out][:n]
			k.VU(d, xv(m, j, n), yu(m))
			return d
		}
	case xu != nil:
		v.vec = func(m *Machine, j, n int) []float64 {
			d := m.bufs[out][:n]
			k.UV(d, xu(m), yv(m, j, n))
			return d
		}
	default:
		v.vec = func(m *Machine, j, n int) []float64 {
			a, d := xv(m, j, n), m.bufs[out][:n]
			if decided != nil && decided(a) {
				k.VU(d, a, 0)
			} else {
				k.VV(d, a, yv(m, j, n))
			}
			return d
		}
	}
	return v, nil
}

// direct2 is apply2's vector over the strip when it writes into the
// statement's destination.
func direct2(k *kernel.Kernels, decided func([]float64) bool, into vecFn, xu, yu evalFn, xv, yv vecFn) vecFn {
	switch {
	case yu != nil:
		return func(m *Machine, j, n int) []float64 {
			d := into(m, j, n)
			k.VU(d, xv(m, j, n), yu(m))
			return d
		}
	case xu != nil:
		return func(m *Machine, j, n int) []float64 {
			d := into(m, j, n)
			k.UV(d, xu(m), yv(m, j, n))
			return d
		}
	}
	return func(m *Machine, j, n int) []float64 {
		a, d := xv(m, j, n), into(m, j, n)
		if decided != nil && decided(a) {
			k.VU(d, a, 0)
		} else {
			k.VV(d, a, yv(m, j, n))
		}
		return d
	}
}
