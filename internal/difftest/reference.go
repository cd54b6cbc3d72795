package difftest

import (
	"fmt"
	"io"
	"math"

	"repro/internal/air"
	"repro/internal/sema"
)

// Reference writes to out the transcript of prog under the array
// semantics of §2.1. prog is what driver.FrontEnd returns: no
// communication, plan, realignment or scalarization yet, so a fault in
// any of those that every engine inherits still disagrees with it. An
// array statement evaluates its whole right-hand side over its region
// before it stores an element, so the temporaries lowering inserted are
// not relied on; a reduction folds its region in row-major order.
// Storage is the VM's — one zeroed slab per array over its allocation,
// kept for the whole run — and writeln prints with %g. The operators
// and builtins are this file's own: nothing is shared with an engine.
func Reference(prog *air.Program, out io.Writer) (err error) {
	if prog.Main == nil {
		return fmt.Errorf("difftest: reference: program has no main")
	}
	s := &state{prog: prog, arrays: map[string]*slab{}, scalars: map[string]float64{}, out: out}
	for name, a := range prog.Arrays {
		s.arrays[name] = &slab{name, a.Alloc, make([]float64, size(a.Alloc))}
	}
	for name, sc := range prog.Scalars {
		if sc.Config {
			s.scalars[name] = sc.Init
		}
	}
	defer func() {
		switch r := recover().(type) {
		case nil:
		case fault:
			err = r
		default:
			panic(r)
		}
	}()
	s.call(prog.Main)
	return nil
}

// state is one run: every array's slab and scalar's value, and the
// element an array expression is evaluated at (nil in a scalar context).
type state struct {
	prog    *air.Program
	arrays  map[string]*slab
	scalars map[string]float64
	out     io.Writer
	proc    *air.Proc
	idx     []int
}

// slab is an array's storage, row-major over its allocation.
type slab struct {
	name  string
	alloc *sema.Region
	data  []float64
}

// fault carries an evaluation error out of the recursion to Reference.
type fault struct{ error }

func failf(format string, args ...any) {
	panic(fault{fmt.Errorf("difftest: reference: "+format, args...)})
}

func (s *state) call(p *air.Proc) {
	caller := s.proc
	s.proc = p
	s.nodes(p.Body)
	s.proc = caller
}

// nodes runs a body and reports whether it executed a return.
func (s *state) nodes(body []air.Node) bool {
	for _, n := range body {
		switch x := n.(type) {
		case *air.Block:
			for _, st := range x.Stmts {
				if s.stmt(st) {
					return true
				}
			}
		case *air.Loop:
			lo, hi, step := int64(s.eval(x.Lo)), int64(s.eval(x.Hi)), int64(1)
			if x.Down { // count up over the negated bounds
				lo, hi, step = -lo, -hi, -1
			}
			for v := lo; v <= hi; v++ {
				s.scalars[x.Var] = float64(step * v)
				if s.nodes(x.Body) {
					return true
				}
			}
		case *air.While:
			for s.eval(x.Cond) != 0 {
				if s.nodes(x.Body) {
					return true
				}
			}
		case *air.If:
			branch := x.Else
			if s.eval(x.Cond) != 0 {
				branch = x.Then
			}
			if s.nodes(branch) {
				return true
			}
		}
	}
	return false
}

// stmt runs one statement and reports whether it was a return.
func (s *state) stmt(st air.Stmt) bool {
	switch x := st.(type) {
	case *air.ArrayStmt:
		vals, dst, i := s.sweep(x.Region, x.RHS), s.arrays[x.LHS], 0
		forEach(x.Region, func(idx []int) { dst.data[dst.pos(idx, nil)], i = vals[i], i+1 })
	case *air.ScalarStmt:
		s.scalars[x.LHS] = s.eval(x.RHS)
	case *air.ReduceStmt:
		acc := x.Op.Identity()
		for _, v := range s.sweep(x.Region, x.Body) {
			acc = combine(x.Op, acc, v)
		}
		s.scalars[x.Target] = acc
	case *air.PartialReduceStmt:
		// A dimension the destination collapses pins to its bound.
		vals, dst, i := s.sweep(x.Region, x.Body), s.arrays[x.LHS], 0
		forEach(x.Dest, func(idx []int) { dst.data[dst.pos(idx, nil)] = x.Op.Identity() })
		forEach(x.Region, func(idx []int) {
			into := append([]int(nil), idx...)
			for d := range into {
				if x.Dest.Extent(d) == 1 && x.Region.Extent(d) != 1 {
					into[d] = x.Dest.Lo[d]
				}
			}
			p := dst.pos(into, nil)
			dst.data[p], i = combine(x.Op, dst.data[p], vals[i]), i+1
		})
	case *air.CommStmt:
		// Arrays are whole here: an exchange moves nothing.
	case *air.WritelnStmt:
		for i, a := range x.Args {
			if i > 0 {
				fmt.Fprint(s.out, " ")
			}
			if a.Expr != nil {
				fmt.Fprintf(s.out, "%g", s.eval(a.Expr))
			} else {
				fmt.Fprint(s.out, a.Str)
			}
		}
		fmt.Fprintln(s.out)
	case *air.CallStmt:
		p := s.prog.Procs[x.Proc]
		if p == nil || len(p.Params) != len(x.Args) {
			failf("call of %s with %d arguments", x.Proc, len(x.Args))
		}
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			args[i] = s.eval(a)
		}
		for i, name := range p.Params {
			s.scalars[name] = args[i]
		}
		s.call(p)
		if x.Target != "" && p.HasResult {
			s.scalars[x.Target] = s.scalars[p.Name+".$result"]
		}
	case *air.ReturnStmt:
		if x.Value != nil {
			s.scalars[s.proc.Name+".$result"] = s.eval(x.Value)
		}
		return true
	default:
		failf("unknown statement %T", st)
	}
	return false
}

// sweep evaluates e at every index of r in row-major order.
func (s *state) sweep(r *sema.Region, e air.Expr) []float64 {
	vals := make([]float64, 0, size(r))
	forEach(r, func(idx []int) {
		s.idx = idx
		vals = append(vals, s.eval(e))
	})
	s.idx = nil
	return vals
}

func (s *state) eval(e air.Expr) float64 {
	switch x := e.(type) {
	case *air.ConstExpr:
		return x.Val
	case *air.ScalarExpr:
		return s.scalars[x.Name]
	case *air.IndexExpr:
		if x.Dim < 1 || x.Dim > len(s.idx) {
			failf("index%d outside an array statement of its rank", x.Dim)
		}
		return float64(s.idx[x.Dim-1])
	case *air.RefExpr:
		a := s.arrays[x.Ref.Array]
		if a == nil || s.idx == nil {
			failf("array %s read outside an array statement", x.Ref.Array)
		}
		return a.data[a.pos(s.idx, x.Ref.Off)]
	case *air.BinExpr:
		if f := binary[x.Op]; f != nil {
			return f(s.eval(x.X), s.eval(x.Y))
		}
	case *air.UnExpr:
		if x.Op == air.OpNot {
			return b2f(s.eval(x.X) == 0)
		}
		return -s.eval(x.X)
	case *air.CallExpr:
		if f := builtin1[x.Name]; f != nil && len(x.Args) == 1 {
			return f(s.eval(x.Args[0]))
		}
		if f := builtin2[x.Name]; f != nil && len(x.Args) == 2 {
			return f(s.eval(x.Args[0]), s.eval(x.Args[1]))
		}
	}
	failf("cannot evaluate %v", e)
	return 0
}

// pos is the storage position of idx+off; outside the allocation is a
// fault, never a neighbour's element.
func (a *slab) pos(idx []int, off air.Offset) int {
	p := 0
	for d, i := range idx {
		if off != nil {
			i += off[d]
		}
		if d >= a.alloc.Rank() || i < a.alloc.Lo[d] || i > a.alloc.Hi[d] {
			failf("%s read at %v%v, outside its allocation %v", a.name, idx, off, a.alloc)
		}
		p = p*a.alloc.Extent(d) + i - a.alloc.Lo[d]
	}
	return p
}

// size is the number of points of r; an empty dimension empties it.
func size(r *sema.Region) int {
	n := 1
	for d := range r.Lo {
		n *= max(r.Extent(d), 0)
	}
	return n
}

// forEach calls fn at every index of r in row-major order; fn must not
// keep idx.
func forEach(r *sema.Region, fn func(idx []int)) {
	if size(r) == 0 {
		return
	}
	idx := append([]int(nil), r.Lo...)
	for d := 0; d >= 0; {
		fn(idx)
		for d = len(idx) - 1; d >= 0 && idx[d] == r.Hi[d]; d-- {
			idx[d] = r.Lo[d]
		}
		if d >= 0 {
			idx[d]++
		}
	}
}

func combine(op air.ReduceOp, acc, v float64) float64 {
	switch op {
	case air.ReduceProd:
		return acc * v
	case air.ReduceMax:
		return math.Max(acc, v)
	case air.ReduceMin:
		return math.Min(acc, v)
	}
	return acc + v
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var binary = map[air.Op]func(a, b float64) float64{
	air.OpAdd: func(a, b float64) float64 { return a + b },
	air.OpSub: func(a, b float64) float64 { return a - b },
	air.OpMul: func(a, b float64) float64 { return a * b },
	air.OpDiv: func(a, b float64) float64 { return a / b },
	air.OpRem: math.Mod,
	air.OpPow: math.Pow,
	air.OpEq:  func(a, b float64) float64 { return b2f(a == b) },
	air.OpNe:  func(a, b float64) float64 { return b2f(a != b) },
	air.OpLt:  func(a, b float64) float64 { return b2f(a < b) },
	air.OpLe:  func(a, b float64) float64 { return b2f(a <= b) },
	air.OpGt:  func(a, b float64) float64 { return b2f(a > b) },
	air.OpGe:  func(a, b float64) float64 { return b2f(a >= b) },
	air.OpAnd: func(a, b float64) float64 { return b2f(a != 0 && b != 0) },
	air.OpOr:  func(a, b float64) float64 { return b2f(a != 0 || b != 0) },
}

var builtin1 = map[string]func(float64) float64{
	"sqrt": math.Sqrt, "exp": math.Exp, "log": math.Log, "sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
	"abs": math.Abs, "floor": math.Floor, "ceil": math.Ceil,
	"sign": func(v float64) float64 { return b2f(v > 0) - b2f(v < 0) },
}

var builtin2 = map[string]func(x, y float64) float64{
	"min": math.Min, "max": math.Max, "pow": math.Pow, "mod": math.Mod, "atan2": math.Atan2,
}
