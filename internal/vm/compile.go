package vm

import (
	"fmt"
	"math"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/dep"
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
		return func(m *Machine) signal {
			for truthy(cond(m)) {
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
		return func(m *Machine) signal {
			if !m.step() {
				return sigFault
			}
			branch := els
			if truthy(cond(m)) {
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
// dispatch. Measured on the run-interp workload the time per element is
// flat from here up (DESIGN.md §22), so it is a constant, not an option.
// A traced machine runs at width 1, which reports every Access, Flops
// and Reduce in element order.
const stripWidth = 128

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
// outer loops set m.idx, the innermost runs stmts a strip at a time.
func (m *Machine) sweep(region *sema.Region, order dep.LoopStructure, stmts []stripFn) func(*Machine) {
	inner, dir, w := m.nest.inner, m.nest.dir, m.width
	first, extent := region.Lo[inner], region.Extent(inner)
	if dir < 0 {
		first = region.Hi[inner]
	}
	run := func(m *Machine) {
		for done := 0; done < extent; done += w {
			m.idx[inner] = first + dir*done
			n := min(w, extent-done)
			for _, st := range stmts {
				st(m, 0, n)
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
		run = func(m *Machine) {
			for i, left := first, extent; left > 0; i, left = i+dir, left-1 {
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
		rhs, err := m.compileExpr(s.RHS)
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
			targets, ids = append(targets, slot), append(ids, s.Op.Identity())
			st = fold(slot, s.Op, rhs)
		case s.Contracted:
			st = m.assign(m.reg(s.LHS), rhs)
		default:
			var site *absint.Site
			if m.bounds != nil {
				site = m.bounds.Store(s)
			}
			a, err := m.array(s.LHS)
			if err != nil {
				return nil, err
			}
			st = m.store(m.ref(a, air.Zero(region.Rank()), site), rhs)
		}
		m.release(rhs.own)
		stmts = append(stmts, m.clip(s.Guard, x.Region, st))
	}

	run := m.sweep(region, x.Order, stmts)
	elemSteps := int64(region.Size()) * int64(len(stmts))
	sweep := func(m *Machine) signal {
		if !m.charge(elemSteps) {
			return sigFault
		}
		for i, slot := range targets {
			m.slots[slot] = ids[i]
		}
		run(m)
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

// fold accumulates the strip into a full reduction's target slot,
// element by element in loop order (the bit pattern of a floating-point
// reduction is its order). Each operator has its own loop, the
// accumulator in a register; max and min spell out fmax and fmin (which
// inline, but then show in a profile as a frame of their own).
func fold(slot int, op air.ReduceOp, rhs value) stripFn {
	flops := rhs.flops + 1
	switch op {
	case air.ReduceProd:
		return func(m *Machine, j, n int) {
			m.flops(flops, n)
			acc := m.slots[slot]
			for _, x := range rhs.vec(m, j, n) {
				acc *= x
			}
			m.slots[slot] = acc
		}
	case air.ReduceMax:
		return func(m *Machine, j, n int) {
			m.flops(flops, n)
			acc := m.slots[slot]
			for _, x := range rhs.vec(m, j, n) {
				if x > acc {
					acc = x
				} else if !(x <= acc && acc != 0) {
					acc = maxSlow(acc, x)
				}
			}
			m.slots[slot] = acc
		}
	case air.ReduceMin:
		return func(m *Machine, j, n int) {
			m.flops(flops, n)
			acc := m.slots[slot]
			for _, x := range rhs.vec(m, j, n) {
				if x < acc {
					acc = x
				} else if !(x >= acc && acc != 0) {
					acc = minSlow(acc, x)
				}
			}
			m.slots[slot] = acc
		}
	}
	return func(m *Machine, j, n int) {
		m.flops(flops, n)
		acc := m.slots[slot]
		for _, x := range rhs.vec(m, j, n) {
			acc += x
		}
		m.slots[slot] = acc
	}
}

// flops reports a statement-strip's operations to the tracer.
func (m *Machine) flops(perElem int64, n int) {
	if m.tracer != nil && perElem > 0 {
		m.tracer.Flops(perElem * int64(n))
	}
}

// fmax is math.Max(acc, x) bit for bit, and inlines (cost 78 of the
// inliner's 80). x > acc takes x. x <= acc keeps acc when acc is not
// zero: a tie away from zero has one bit pattern. Anything else — a NaN,
// or acc = ±0 with x not above it — goes to maxSlow, out of line, which
// is math.Max and on amd64 a call to assembly. (Keeping acc for every
// x < acc as well costs 82, and then fmax no longer inlines.) fold
// spells the rule out, and gogen's za_max is the same rule.
func fmax(acc, x float64) float64 {
	if x > acc {
		return x
	}
	if x <= acc && acc != 0 {
		return acc
	}
	return maxSlow(acc, x)
}

// fmin is math.Min(acc, x) bit for bit, as fmax is math.Max.
func fmin(acc, x float64) float64 {
	if x < acc {
		return x
	}
	if x >= acc && acc != 0 {
		return acc
	}
	return minSlow(acc, x)
}

//go:noinline
func maxSlow(acc, x float64) float64 { return math.Max(acc, x) }

//go:noinline
func minSlow(acc, x float64) float64 { return math.Min(acc, x) }

// combine is one step of a reduction.
func combine(op air.ReduceOp, acc, x float64) float64 {
	switch op {
	case air.ReduceProd:
		return acc * x
	case air.ReduceMax:
		return fmax(acc, x)
	case air.ReduceMin:
		return fmin(acc, x)
	}
	return acc + x
}

// combineInto accumulates v into dst[p], dst[p+step], ...: a reduction's
// strip into its projections, or one processor's partials into another's.
func combineInto(op air.ReduceOp, dst []float64, p, step int, v []float64) {
	switch op {
	case air.ReduceProd:
		for _, x := range v {
			dst[p] *= x
			p += step
		}
	case air.ReduceMax:
		for _, x := range v {
			dst[p] = fmax(dst[p], x)
			p += step
		}
	case air.ReduceMin:
		for _, x := range v {
			dst[p] = fmin(dst[p], x)
			p += step
		}
	default:
		for _, x := range v {
			dst[p] += x
			p += step
		}
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
	init := m.sweep(x.Dest, order, []stripFn{m.store(dst, fill)})
	// The accumulation reads and writes the projected element through
	// its own two sites; a faulted site or a traced run goes element by
	// element, as a load and a store do.
	into := dst.project(collapsed, x.Dest)
	from := into
	from.shift = 0
	if loadSite != nil {
		from.shift = loadSite.FaultShift
	}
	data := dst.a.data
	accumulate := m.sweep(x.Region, order, []stripFn{func(m *Machine, j, n int) {
		v := body.vec(m, j, n)
		m.flops(body.flops+1, n)
		p := into.pos(m, j)
		if from.shift == 0 && into.shift == 0 && m.tracer == nil {
			combineInto(op, data, p, into.step, v)
			return
		}
		for _, x := range v {
			r := combine(op, data[from.touch(m, p, false)], x)
			data[into.touch(m, p, true)] = r
			p += into.step
		}
	}})
	elems := int64(x.Region.Size())
	return func(m *Machine) signal {
		if !m.charge(elems) {
			return sigFault
		}
		init(m)
		accumulate(m)
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
		return value{own: -1, vec: func(m *Machine, j, n int) []float64 {
			p := r.pos(m, j)
			return r.a.data[p : p+n : p+n]
		}}, nil
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

func (m *Machine) compileExpr(e air.Expr) (value, error) {
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
		f, k, err := binOp(x.Op)
		if err != nil {
			return value{}, err
		}
		return m.apply2(f, k, x.X, x.Y, 1)
	case *air.UnExpr:
		if x.Op == air.OpNot {
			return m.apply1(func(v float64) float64 { return b2f(!truthy(v)) }, nil, x.X, 1)
		}
		return m.apply1(func(v float64) float64 { return -v }, func(d, x []float64) {
			for i, v := range x[:len(d)] {
				d[i] = -v
			}
		}, x.X, 1)
	case *air.CallExpr:
		// Transcendental calls cost more than one op.
		if b, ok := builtin1[x.Name]; ok && len(x.Args) == 1 {
			return m.apply1(b.f, b.k, x.Args[0], 4)
		}
		if b, ok := builtin2[x.Name]; ok && len(x.Args) == 2 {
			return m.apply2(b.f, b.k, x.Args[0], x.Args[1], 4)
		}
		return value{}, fmt.Errorf("unknown builtin %s/%d", x.Name, len(x.Args))
	}
	return value{}, fmt.Errorf("unknown expression %T", e)
}

// register is a read of a contracted array or a preload: a view of its
// strip buffer.
func register(buf int) value {
	return value{own: -1, vec: func(m *Machine, j, n int) []float64 { return m.bufs[buf][j : j+n] }}
}

// apply1 compiles a one-operand operator: f on a uniform, k (or f per
// element) over a vector, in place when the operand owns its buffer.
func (m *Machine) apply1(f func(float64) float64, k func(d, x []float64), e air.Expr, cost int64) (value, error) {
	x, err := m.compileExpr(e)
	if err != nil {
		return value{}, err
	}
	if u := x.uni; u != nil {
		return uniform(func(m *Machine) float64 { return f(u(m)) }, x.flops+cost), nil
	}
	if k == nil {
		k = func(d, x []float64) {
			for i, v := range x[:len(d)] {
				d[i] = f(v)
			}
		}
	}
	out, xv := x.own, x.vec
	if out < 0 {
		out = m.acquire()
	}
	return value{own: out, flops: x.flops + cost, vec: func(m *Machine, j, n int) []float64 {
		d := m.bufs[out][:n]
		k(d, xv(m, j, n))
		return d
	}}, nil
}

// kernels are the three operand shapes of a two-operand operator over a
// strip: vector∘vector, vector∘uniform, uniform∘vector.
type kernels struct {
	vv func(d, x, y []float64)
	vu func(d, x []float64, y float64)
	uv func(d []float64, x float64, y []float64)
	// decided, for & and |, reports that the first operand fixes the
	// result at every element; the second is then not evaluated, which
	// at width 1 is the short circuit a traced run has always reported.
	decided func(x []float64) bool
}

// allAre tests that every element's truth value is t.
func allAre(t bool) func(x []float64) bool {
	return func(x []float64) bool {
		for _, v := range x {
			if truthy(v) != t {
				return false
			}
		}
		return true
	}
}

// apply2 compiles a two-operand operator. The result reuses an operand's
// scratch buffer when it has one (every kernel is element-wise, so it
// may overwrite its input); the other operand's buffer returns to the
// pool for the nodes evaluated after this one.
func (m *Machine) apply2(f func(a, b float64) float64, k *kernels, ex, ey air.Expr, cost int64) (value, error) {
	x, err := m.compileExpr(ex)
	if err != nil {
		return value{}, err
	}
	y, err := m.compileExpr(ey)
	if err != nil {
		return value{}, err
	}
	flops := x.flops + y.flops + cost
	xu, yu, xv, yv := x.uni, y.uni, x.vec, y.vec
	if xu != nil && yu != nil {
		return uniform(func(m *Machine) float64 { return f(xu(m), yu(m)) }, flops), nil
	}
	if k == nil {
		k = &kernels{}
	}
	if k.vv == nil {
		k.vv = func(d, x, y []float64) {
			y = y[:len(d)]
			for i, v := range x[:len(d)] {
				d[i] = f(v, y[i])
			}
		}
		k.vu = func(d, x []float64, y float64) {
			for i, v := range x[:len(d)] {
				d[i] = f(v, y)
			}
		}
		k.uv = func(d []float64, x float64, y []float64) {
			for i, v := range y[:len(d)] {
				d[i] = f(x, v)
			}
		}
	}
	if k.decided != nil && xu != nil {
		x = m.spread(x)
		xu, xv = nil, x.vec
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
			k.vu(d, xv(m, j, n), yu(m))
			return d
		}
	case xu != nil:
		v.vec = func(m *Machine, j, n int) []float64 {
			d := m.bufs[out][:n]
			k.uv(d, xu(m), yv(m, j, n))
			return d
		}
	default:
		v.vec = func(m *Machine, j, n int) []float64 {
			a, d := xv(m, j, n), m.bufs[out][:n]
			if k.decided != nil && k.decided(a) {
				k.vu(d, a, 0)
			} else {
				k.vv(d, a, yv(m, j, n))
			}
			return d
		}
	}
	return v, nil
}

// binOp returns an operator's scalar function and, for the four
// arithmetic operators every benchmark's time goes to, loops the
// compiler can keep in registers; the rest call f per element.
func binOp(op air.Op) (func(a, b float64) float64, *kernels, error) {
	switch op {
	case air.OpAdd:
		return func(a, b float64) float64 { return a + b }, &kernels{
			vv: func(d, x, y []float64) {
				y = y[:len(d)]
				for i, v := range x[:len(d)] {
					d[i] = v + y[i]
				}
			},
			vu: func(d, x []float64, y float64) {
				for i, v := range x[:len(d)] {
					d[i] = v + y
				}
			},
			uv: func(d []float64, x float64, y []float64) {
				for i, v := range y[:len(d)] {
					d[i] = x + v
				}
			},
		}, nil
	case air.OpSub:
		return func(a, b float64) float64 { return a - b }, &kernels{
			vv: func(d, x, y []float64) {
				y = y[:len(d)]
				for i, v := range x[:len(d)] {
					d[i] = v - y[i]
				}
			},
			vu: func(d, x []float64, y float64) {
				for i, v := range x[:len(d)] {
					d[i] = v - y
				}
			},
			uv: func(d []float64, x float64, y []float64) {
				for i, v := range y[:len(d)] {
					d[i] = x - v
				}
			},
		}, nil
	case air.OpMul:
		return func(a, b float64) float64 { return a * b }, &kernels{
			vv: func(d, x, y []float64) {
				y = y[:len(d)]
				for i, v := range x[:len(d)] {
					d[i] = v * y[i]
				}
			},
			vu: func(d, x []float64, y float64) {
				for i, v := range x[:len(d)] {
					d[i] = v * y
				}
			},
			uv: func(d []float64, x float64, y []float64) {
				for i, v := range y[:len(d)] {
					d[i] = x * v
				}
			},
		}, nil
	case air.OpDiv:
		return func(a, b float64) float64 { return a / b }, &kernels{
			vv: func(d, x, y []float64) {
				y = y[:len(d)]
				for i, v := range x[:len(d)] {
					d[i] = v / y[i]
				}
			},
			vu: func(d, x []float64, y float64) {
				for i, v := range x[:len(d)] {
					d[i] = v / y
				}
			},
			uv: func(d []float64, x float64, y []float64) {
				for i, v := range y[:len(d)] {
					d[i] = x / v
				}
			},
		}, nil
	case air.OpRem:
		return math.Mod, nil, nil
	case air.OpPow:
		return math.Pow, nil, nil
	case air.OpEq:
		return func(a, b float64) float64 { return b2f(a == b) }, nil, nil
	case air.OpNe:
		return func(a, b float64) float64 { return b2f(a != b) }, nil, nil
	case air.OpLt:
		return func(a, b float64) float64 { return b2f(a < b) }, nil, nil
	case air.OpLe:
		return func(a, b float64) float64 { return b2f(a <= b) }, nil, nil
	case air.OpGt:
		return func(a, b float64) float64 { return b2f(a > b) }, nil, nil
	case air.OpGe:
		return func(a, b float64) float64 { return b2f(a >= b) }, nil, nil
	case air.OpAnd:
		return func(a, b float64) float64 { return b2f(truthy(a) && truthy(b)) }, &kernels{decided: allAre(false)}, nil
	case air.OpOr:
		return func(a, b float64) float64 { return b2f(truthy(a) || truthy(b)) }, &kernels{decided: allAre(true)}, nil
	}
	return nil, nil, fmt.Errorf("unknown operator %v", op)
}

// builtin1 maps a one-argument builtin to its function and, for the
// ones the Go compiler turns into an instruction or a few (math.Abs,
// Sqrt, Floor and Ceil are intrinsics when called directly), a strip
// loop; the libm calls go through f per element.
var builtin1 = map[string]struct {
	f func(float64) float64
	k func(d, x []float64)
}{
	"sqrt": {math.Sqrt, func(d, x []float64) {
		for i, v := range x[:len(d)] {
			d[i] = math.Sqrt(v)
		}
	}},
	"abs": {math.Abs, func(d, x []float64) {
		for i, v := range x[:len(d)] {
			d[i] = math.Abs(v)
		}
	}},
	"floor": {math.Floor, func(d, x []float64) {
		for i, v := range x[:len(d)] {
			d[i] = math.Floor(v)
		}
	}},
	"ceil": {math.Ceil, func(d, x []float64) {
		for i, v := range x[:len(d)] {
			d[i] = math.Ceil(v)
		}
	}},
	"sign": {sign, func(d, x []float64) {
		for i, v := range x[:len(d)] {
			d[i] = sign(v)
		}
	}},
	"exp": {f: math.Exp}, "log": {f: math.Log}, "sin": {f: math.Sin}, "cos": {f: math.Cos}, "tan": {f: math.Tan},
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// builtin2 maps a two-argument builtin to its function and, for max and
// min, complete strip kernels (apply2 fills in only a kernel set that
// lacks loops, and these are shared). math.Max and math.Min are
// symmetric in their operands, bits included, so uniform∘vector is
// vector∘uniform.
var builtin2 = map[string]struct {
	f func(x, y float64) float64
	k *kernels
}{
	"max": {math.Max, &kernels{vv: maxVV, vu: maxVU, uv: func(d []float64, x float64, y []float64) { maxVU(d, y, x) }}},
	"min": {math.Min, &kernels{vv: minVV, vu: minVU, uv: func(d []float64, x float64, y []float64) { minVU(d, y, x) }}},
	"pow": {f: math.Pow}, "mod": {f: math.Mod}, "atan2": {f: math.Atan2},
}

func maxVV(d, x, y []float64) {
	y = y[:len(d)]
	for i, v := range x[:len(d)] {
		d[i] = fmax(v, y[i])
	}
}

func maxVU(d, x []float64, y float64) {
	for i, v := range x[:len(d)] {
		d[i] = fmax(v, y)
	}
}

func minVV(d, x, y []float64) {
	y = y[:len(d)]
	for i, v := range x[:len(d)] {
		d[i] = fmin(v, y[i])
	}
}

func minVU(d, x []float64, y float64) {
	for i, v := range x[:len(d)] {
		d[i] = fmin(v, y)
	}
}
