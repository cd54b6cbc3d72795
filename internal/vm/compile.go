package vm

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/absint"
	"repro/internal/air"
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
		rhs, flops, err := m.compileExpr(x.RHS)
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
		cond, _, err := m.compileExpr(x.Cond)
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
		cond, _, err := m.compileExpr(x.Cond)
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
		val, _, err := m.compileExpr(x.Value)
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
	lo, _, err := m.compileExpr(x.Lo)
	if err != nil {
		return nil, err
	}
	hi, _, err := m.compileExpr(x.Hi)
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
		fn, _, err := m.compileExpr(a)
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
	return func(m *Machine) signal {
		if !m.step() {
			return sigFault
		}
		// Evaluate args before binding (no aliasing of param slots by
		// the caller since recursion is rejected at lowering).
		vals := make([]float64, len(args))
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
			fn, _, err := m.compileExpr(a.Expr)
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
	arr, off, phase := x.Array, x.Off.Clone(), x.Phase
	msgID, piggy := x.MsgID, x.Piggyback
	return func(m *Machine) signal {
		if !m.step() {
			return sigFault
		}
		if m.tracer != nil {
			m.tracer.Comm(arr, off, elems, phase, msgID, piggy)
		}
		return sigNext
	}, nil
}

// haloElems is the number of elements a ghost exchange for the given
// offset moves: the slab of the region surface with thickness |off_d|
// in each displaced dimension.
func haloElems(reg interface {
	Rank() int
	Extent(int) int
}, off air.Offset) int {
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

// compilePartialReduce lowers a dimensional reduction: initialize the
// destination slab to the identity, then sweep the source region
// accumulating each element into its projection (collapsed dimensions
// pin to the destination's bound).
func (m *Machine) compilePartialReduce(x *lir.PartialReduce) (execFn, error) {
	rank := x.Region.Rank()
	body, flops, err := m.compileExpr(x.Body)
	if err != nil {
		return nil, err
	}
	var loadSite, storeSite *absint.Site
	if m.bounds != nil {
		loadSite, storeSite = m.bounds.ReduceLoad(x), m.bounds.ReduceStore(x)
	}
	load, err := m.compileLoad(x.LHS, air.Zero(rank), loadSite)
	if err != nil {
		return nil, err
	}
	store, err := m.compileStore(x.LHS, air.Zero(rank), storeSite)
	if err != nil {
		return nil, err
	}
	collapsed := make([]bool, rank)
	for k := 0; k < rank; k++ {
		collapsed[k] = x.Dest.Extent(k) == 1 && x.Region.Extent(k) != 1
	}
	if m.shard != nil {
		if err := m.checkLocal(x); err != nil {
			return nil, err
		}
		return m.shardPartialReduce(x, body, store, collapsed), nil
	}
	combine := reduceCombine(x.Op)
	id := x.Op.Identity()
	dest, region := x.Dest, x.Region

	elems := int64(region.Size())
	return func(m *Machine) signal {
		if !m.charge(elems) {
			return sigFault
		}
		// Initialize the destination slab.
		m.each(dest, func() { store(m, id) })
		// Accumulate.
		m.each(region, func() {
			v := body(m)
			if m.tracer != nil {
				m.tracer.Flops(flops + 1)
			}
			save := m.idx
			for d := 0; d < rank; d++ {
				if collapsed[d] {
					m.idx[d] = dest.Lo[d]
				}
			}
			store(m, combine(load(m), v))
			m.idx = save
		})
		if m.tracer != nil {
			m.tracer.Reduce()
		}
		return sigNext
	}, nil
}

// each runs f at every index of r in row-major order, with m.idx set.
func (m *Machine) each(r *sema.Region, f func()) {
	var walk func(k int)
	walk = func(k int) {
		if k == r.Rank() {
			f()
			return
		}
		for i := r.Lo[k]; i <= r.Hi[k]; i++ {
			m.idx[k] = i
			walk(k + 1)
		}
	}
	walk(0)
}

// ---------------------------------------------------------------------------
// Nest compilation

func (m *Machine) compileNest(x *lir.Nest) (execFn, error) {
	rank := x.Region.Rank()
	// A shard sweeps its owned portion of the region; the clipped
	// bounds are captured by the loop closures exactly as whole ones.
	region := x.Region
	if m.shard != nil {
		if err := m.checkLocal(x); err != nil {
			return nil, err
		}
		region = m.portion(x.Region)
	}
	type stmtC struct {
		exec execFn // one element execution (uses m.idx)
		init execFn // reduction target initialization, or nil
	}
	var stmts []stmtC

	// Scalar-replacement preloads run first in every iteration.
	for i, pl := range x.Preloads {
		slot, ok := m.slotIdx[pl.Var]
		if !ok {
			return nil, fmt.Errorf("unknown preload register %s", pl.Var)
		}
		var site *absint.Site
		if m.bounds != nil {
			site = m.bounds.PreloadSite(x, i)
		}
		load, err := m.compileLoad(pl.Array, pl.Off, site)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmtC{
			exec: func(m *Machine) signal {
				m.slots[slot] = load(m)
				return sigNext
			},
		})
	}

	for _, s := range x.Body {
		guard := compileGuard(s.Guard, x.Region)
		rhs, flops, err := m.compileExpr(s.RHS)
		if err != nil {
			return nil, err
		}
		switch {
		case s.IsReduce:
			slot, ok := m.slotIdx[s.Target]
			if !ok {
				return nil, fmt.Errorf("unknown reduction target %s", s.Target)
			}
			combine := reduceCombine(s.Op)
			id := s.Op.Identity()
			stmts = append(stmts, stmtC{
				init: func(m *Machine) signal { m.slots[slot] = id; return sigNext },
				exec: func(m *Machine) signal {
					if guard != nil && !guard(m) {
						return sigNext
					}
					if m.tracer != nil {
						m.tracer.Flops(flops + 1)
					}
					m.slots[slot] = combine(m.slots[slot], rhs(m))
					return sigNext
				},
			})
		case s.Contracted:
			slot, ok := m.slotIdx[s.LHS]
			if !ok {
				return nil, fmt.Errorf("unknown contracted register %s", s.LHS)
			}
			stmts = append(stmts, stmtC{
				exec: func(m *Machine) signal {
					if guard != nil && !guard(m) {
						return sigNext
					}
					if m.tracer != nil && flops > 0 {
						m.tracer.Flops(flops)
					}
					m.slots[slot] = rhs(m)
					return sigNext
				},
			})
		default:
			var site *absint.Site
			if m.bounds != nil {
				site = m.bounds.Store(s)
			}
			store, err := m.compileStore(s.LHS, air.Zero(rank), site)
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, stmtC{
				exec: func(m *Machine) signal {
					if guard != nil && !guard(m) {
						return sigNext
					}
					if m.tracer != nil && flops > 0 {
						m.tracer.Flops(flops)
					}
					store(m, rhs(m))
					return sigNext
				},
			})
		}
	}

	body := func(m *Machine) {
		for i := range stmts {
			stmts[i].exec(m)
		}
	}

	// Build the loop nest per the structure vector, outermost first.
	run := body
	for k := rank - 1; k >= 0; k-- {
		pi := x.Order[k]
		dim := pi
		if dim < 0 {
			dim = -dim
		}
		d := dim - 1
		lo, hi := region.Lo[d], region.Hi[d]
		inner := run
		if pi > 0 {
			run = func(m *Machine) {
				for i := lo; i <= hi; i++ {
					m.idx[d] = i
					inner(m)
				}
			}
		} else {
			run = func(m *Machine) {
				for i := hi; i >= lo; i-- {
					m.idx[d] = i
					inner(m)
				}
			}
		}
	}

	nReduce := 0
	for _, s := range x.Body {
		if s.IsReduce {
			nReduce++
		}
	}
	elemSteps := int64(region.Size()) * int64(len(stmts))
	sweep := func(m *Machine) signal {
		if !m.charge(elemSteps) {
			return sigFault
		}
		for i := range stmts {
			if stmts[i].init != nil {
				stmts[i].init(m)
			}
		}
		run(m)
		if m.tracer != nil {
			for i := 0; i < nReduce; i++ {
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

// compileGuard returns a predicate over m.idx, or nil when the guard
// region equals the nest region (no check needed). Only dimensions
// where the statement's region differs from the nest region are
// checked.
func compileGuard(guard, nest *sema.Region) func(*Machine) bool {
	if guard == nil {
		return nil
	}
	type check struct{ d, lo, hi int }
	var checks []check
	for d := 0; d < nest.Rank(); d++ {
		if guard.Lo[d] != nest.Lo[d] || guard.Hi[d] != nest.Hi[d] {
			checks = append(checks, check{d, guard.Lo[d], guard.Hi[d]})
		}
	}
	if len(checks) == 0 {
		return nil
	}
	return func(m *Machine) bool {
		for _, c := range checks {
			if m.idx[c.d] < c.lo || m.idx[c.d] > c.hi {
				return false
			}
		}
		return true
	}
}

func reduceCombine(op air.ReduceOp) func(a, b float64) float64 {
	switch op {
	case air.ReduceSum:
		return func(a, b float64) float64 { return a + b }
	case air.ReduceProd:
		return func(a, b float64) float64 { return a * b }
	case air.ReduceMax:
		return math.Max
	case air.ReduceMin:
		return math.Min
	}
	return func(a, b float64) float64 { return a + b }
}

// ---------------------------------------------------------------------------
// Expression compilation

// compileStore returns a function writing one element of an array at
// the given offset from the current indices. A ProvenSafe site (and
// no tracer) takes the unchecked path: a raw pointer store with no
// slice bounds check, licensed by the prover's interval evidence.
func (m *Machine) compileStore(name string, off air.Offset, site *absint.Site) (func(*Machine, float64), error) {
	a, ok := m.arrays[name]
	if !ok {
		return nil, fmt.Errorf("unknown array %s", name)
	}
	pos, addr := accessFns(a, off)
	if m.tracer != nil {
		return func(m *Machine, v float64) {
			p := pos(m)
			m.tracer.Access(addr(p), true)
			a.data[p] = v
		}, nil
	}
	if unchecked(site, a) {
		base, n := unsafe.Pointer(&a.data[0]), len(a.data)
		if shift := site.FaultShift; shift != 0 {
			return func(m *Machine, v float64) {
				*(*float64)(unsafe.Add(base, uintptr(faultPos(pos(m), shift, n))*8)) = v
			}, nil
		}
		return func(m *Machine, v float64) {
			*(*float64)(unsafe.Add(base, uintptr(pos(m))*8)) = v
		}, nil
	}
	return func(m *Machine, v float64) { a.data[pos(m)] = v }, nil
}

// compileLoad returns a function reading one element of an array (or
// the register of a contracted array) at the given offset from the
// current indices, taking the unchecked path when the prover's site
// verdict licenses it.
func (m *Machine) compileLoad(name string, off air.Offset, site *absint.Site) (evalFn, error) {
	if info := m.prog.Source.Arrays[name]; info != nil && info.Contracted {
		slot, ok := m.slotIdx[name]
		if !ok {
			return nil, fmt.Errorf("no register for contracted %s", name)
		}
		return func(m *Machine) float64 { return m.slots[slot] }, nil
	}
	a, ok := m.arrays[name]
	if !ok {
		return nil, fmt.Errorf("unknown array %s", name)
	}
	pos, addr := accessFns(a, off)
	if m.tracer != nil {
		return func(m *Machine) float64 {
			p := pos(m)
			m.tracer.Access(addr(p), false)
			return a.data[p]
		}, nil
	}
	if unchecked(site, a) {
		base, n := unsafe.Pointer(&a.data[0]), len(a.data)
		if shift := site.FaultShift; shift != 0 {
			return func(m *Machine) float64 {
				return *(*float64)(unsafe.Add(base, uintptr(faultPos(pos(m), shift, n))*8))
			}, nil
		}
		return func(m *Machine) float64 {
			return *(*float64)(unsafe.Add(base, uintptr(pos(m))*8))
		}, nil
	}
	return func(m *Machine) float64 { return a.data[pos(m)] }, nil
}

// unchecked reports whether an access site may skip the bounds check.
func unchecked(site *absint.Site, a *arrayStore) bool {
	return site != nil && site.Verdict == absint.ProvenSafe && len(a.data) > 0
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

func accessFns(a *arrayStore, off air.Offset) (func(*Machine) int, func(int) int64) {
	lo := a.lo
	st := a.strides
	o := off.Clone()
	rank := len(lo)
	pos := func(m *Machine) int {
		p := 0
		for d := 0; d < rank; d++ {
			p += (m.idx[d] + o[d] - lo[d]) * st[d]
		}
		return p
	}
	base := a.base
	addr := func(p int) int64 { return base + int64(p)*8 }
	return pos, addr
}

// compileExpr compiles an expression; flops is the static operation
// count charged per evaluation.
func (m *Machine) compileExpr(e air.Expr) (evalFn, int64, error) {
	switch x := e.(type) {
	case *air.ConstExpr:
		v := x.Val
		return func(*Machine) float64 { return v }, 0, nil
	case *air.ScalarExpr:
		slot, ok := m.slotIdx[x.Name]
		if !ok {
			return nil, 0, fmt.Errorf("unknown scalar %s", x.Name)
		}
		return func(m *Machine) float64 { return m.slots[slot] }, 0, nil
	case *air.RefExpr:
		var site *absint.Site
		if m.bounds != nil {
			site = m.bounds.Read(x)
		}
		fn, err := m.compileLoad(x.Ref.Array, x.Ref.Off, site)
		return fn, 0, err
	case *air.IndexExpr:
		d := x.Dim - 1
		return func(m *Machine) float64 { return float64(m.idx[d]) }, 0, nil
	case *air.BinExpr:
		xf, fx, err := m.compileExpr(x.X)
		if err != nil {
			return nil, 0, err
		}
		yf, fy, err := m.compileExpr(x.Y)
		if err != nil {
			return nil, 0, err
		}
		flops := fx + fy + 1
		fn, err := binFn(x.Op, xf, yf)
		return fn, flops, err
	case *air.UnExpr:
		xf, fx, err := m.compileExpr(x.X)
		if err != nil {
			return nil, 0, err
		}
		if x.Op == air.OpNot {
			return func(m *Machine) float64 { return b2f(!truthy(xf(m))) }, fx + 1, nil
		}
		return func(m *Machine) float64 { return -xf(m) }, fx + 1, nil
	case *air.CallExpr:
		var args []evalFn
		var flops int64 = 4 // transcendental calls cost more than one op
		for _, a := range x.Args {
			fn, fa, err := m.compileExpr(a)
			if err != nil {
				return nil, 0, err
			}
			args = append(args, fn)
			flops += fa
		}
		fn, err := builtinFn(x.Name, args)
		return fn, flops, err
	}
	return nil, 0, fmt.Errorf("unknown expression %T", e)
}

func binFn(op air.Op, x, y evalFn) (evalFn, error) {
	switch op {
	case air.OpAdd:
		return func(m *Machine) float64 { return x(m) + y(m) }, nil
	case air.OpSub:
		return func(m *Machine) float64 { return x(m) - y(m) }, nil
	case air.OpMul:
		return func(m *Machine) float64 { return x(m) * y(m) }, nil
	case air.OpDiv:
		return func(m *Machine) float64 { return x(m) / y(m) }, nil
	case air.OpRem:
		return func(m *Machine) float64 { return math.Mod(x(m), y(m)) }, nil
	case air.OpPow:
		return func(m *Machine) float64 { return math.Pow(x(m), y(m)) }, nil
	case air.OpEq:
		return func(m *Machine) float64 { return b2f(x(m) == y(m)) }, nil
	case air.OpNe:
		return func(m *Machine) float64 { return b2f(x(m) != y(m)) }, nil
	case air.OpLt:
		return func(m *Machine) float64 { return b2f(x(m) < y(m)) }, nil
	case air.OpLe:
		return func(m *Machine) float64 { return b2f(x(m) <= y(m)) }, nil
	case air.OpGt:
		return func(m *Machine) float64 { return b2f(x(m) > y(m)) }, nil
	case air.OpGe:
		return func(m *Machine) float64 { return b2f(x(m) >= y(m)) }, nil
	case air.OpAnd:
		return func(m *Machine) float64 { return b2f(truthy(x(m)) && truthy(y(m))) }, nil
	case air.OpOr:
		return func(m *Machine) float64 { return b2f(truthy(x(m)) || truthy(y(m))) }, nil
	}
	return nil, fmt.Errorf("unknown operator %v", op)
}

func builtinFn(name string, args []evalFn) (evalFn, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s needs %d args, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "sqrt", "exp", "log", "sin", "cos", "tan", "abs", "floor", "ceil", "sign":
		if err := need(1); err != nil {
			return nil, err
		}
		a := args[0]
		var f func(float64) float64
		switch name {
		case "sqrt":
			f = math.Sqrt
		case "exp":
			f = math.Exp
		case "log":
			f = math.Log
		case "sin":
			f = math.Sin
		case "cos":
			f = math.Cos
		case "tan":
			f = math.Tan
		case "abs":
			f = math.Abs
		case "floor":
			f = math.Floor
		case "ceil":
			f = math.Ceil
		case "sign":
			f = func(v float64) float64 {
				switch {
				case v > 0:
					return 1
				case v < 0:
					return -1
				}
				return 0
			}
		}
		return func(m *Machine) float64 { return f(a(m)) }, nil
	case "min", "max", "pow", "mod", "atan2":
		if err := need(2); err != nil {
			return nil, err
		}
		a, b := args[0], args[1]
		var f func(x, y float64) float64
		switch name {
		case "min":
			f = math.Min
		case "max":
			f = math.Max
		case "pow":
			f = math.Pow
		case "mod":
			f = math.Mod
		case "atan2":
			f = math.Atan2
		}
		return func(m *Machine) float64 { return f(a(m), b(m)) }, nil
	}
	return nil, fmt.Errorf("unknown builtin %s", name)
}
