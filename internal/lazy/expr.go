package lazy

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/sema"
)

// Expr is a deferred element-wise expression over array handles,
// scalar handles, constants, and index values. Expressions are pure
// descriptions: building one performs no arithmetic and no allocation
// beyond the node itself; the engine compiles them when a sync point
// forces the pending DAG.
//
// *Handle and *ScalarHandle are themselves expressions (an array handle
// reads at offset zero), so most formulas read naturally:
//
//	lazy.Mul(A, lazy.Const(0.5))         // A * 0.5
//	lazy.Add(A.At(-1, 0), A.At(1, 0))    // A@north + A@south
type Expr interface{ lazyExpr() }

// refExpr reads an array handle at a constant offset from the
// statement's current index.
type refExpr struct {
	h   *Handle
	off []int
}

// constExpr is a numeric constant.
type constExpr struct{ val float64 }

// indexExpr evaluates to the current index along dimension dim
// (1-based), like ZPL's Index1..Index4 virtual arrays.
type indexExpr struct{ dim int }

// binExpr applies a binary operator element-wise.
type binExpr struct {
	op   air.Op
	x, y Expr
}

// unExpr applies a unary operator element-wise.
type unExpr struct {
	op air.Op
	x  Expr
}

// callExpr applies a builtin math function element-wise.
type callExpr struct {
	name string
	args []Expr
}

func (*refExpr) lazyExpr()      {}
func (*constExpr) lazyExpr()    {}
func (*indexExpr) lazyExpr()    {}
func (*binExpr) lazyExpr()      {}
func (*unExpr) lazyExpr()       {}
func (*callExpr) lazyExpr()     {}
func (*Handle) lazyExpr()       {}
func (*ScalarHandle) lazyExpr() {}

// Const is a numeric constant expression.
func Const(v float64) Expr { return &constExpr{v} }

// Index is the current iteration index along dimension dim (1-based):
// the value of the dim-th loop variable at each element.
func Index(dim int) Expr { return &indexExpr{dim} }

// Add is x + y.
func Add(x, y Expr) Expr { return &binExpr{air.OpAdd, x, y} }

// Sub is x - y.
func Sub(x, y Expr) Expr { return &binExpr{air.OpSub, x, y} }

// Mul is x * y.
func Mul(x, y Expr) Expr { return &binExpr{air.OpMul, x, y} }

// Div is x / y.
func Div(x, y Expr) Expr { return &binExpr{air.OpDiv, x, y} }

// Pow is x raised to y.
func Pow(x, y Expr) Expr { return &binExpr{air.OpPow, x, y} }

// Neg is -x.
func Neg(x Expr) Expr { return &unExpr{air.OpNeg, x} }

// Call applies a builtin math function element-wise. The names are
// the ZA builtins: sqrt, exp, log, sin, cos, tan, abs, floor, ceil,
// min, max, pow, mod, atan2, sign. Unknown names surface as a deferred
// error when the expression is used in a statement.
func Call(name string, args ...Expr) Expr { return &callExpr{name, args} }

// Sqrt is sqrt(x).
func Sqrt(x Expr) Expr { return Call("sqrt", x) }

// Abs is abs(x).
func Abs(x Expr) Expr { return Call("abs", x) }

// Min is the element-wise minimum of x and y.
func Min(x, y Expr) Expr { return Call("min", x, y) }

// Max is the element-wise maximum of x and y.
func Max(x, y Expr) Expr { return Call("max", x, y) }

// walkExpr visits e and its subexpressions in pre-order.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *binExpr:
		walkExpr(x.x, fn)
		walkExpr(x.y, fn)
	case *unExpr:
		walkExpr(x.x, fn)
	case *callExpr:
		for _, a := range x.args {
			walkExpr(a, fn)
		}
	}
}

// checkExpr validates an expression against the engine and the
// statement's iteration rank: every handle belongs to eng, every array
// reference's offset and array rank match the iteration rank, index
// dimensions are in range, call names and arities are known. rank 0
// means scalar context (no array reads, no index expressions).
func checkExpr(e Expr, eng *Engine, rank int) error {
	var err error
	note := func(format string, args ...interface{}) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	walkExpr(e, func(x Expr) {
		switch n := x.(type) {
		case nil:
			note("lazy: nil expression")
		case *refExpr:
			if n.h == nil || n.h.eng != eng {
				note("lazy: array handle from a different engine (or nil)")
				return
			}
			if rank == 0 {
				note("lazy: array %s read in scalar context", n.h.name)
				return
			}
			if n.h.region.Rank() != rank {
				note("lazy: array %s has rank %d, statement iterates rank %d",
					n.h.name, n.h.region.Rank(), rank)
			}
			if len(n.off) != rank {
				note("lazy: offset %v on %s has %d components, want %d",
					n.off, n.h.name, len(n.off), rank)
			}
		case *Handle:
			if n.eng != eng {
				note("lazy: array handle from a different engine")
				return
			}
			if rank == 0 {
				note("lazy: array %s read in scalar context", n.name)
				return
			}
			if n.region.Rank() != rank {
				note("lazy: array %s has rank %d, statement iterates rank %d",
					n.name, n.region.Rank(), rank)
			}
		case *ScalarHandle:
			if n.eng != eng {
				note("lazy: scalar handle from a different engine")
			}
		case *indexExpr:
			if rank == 0 {
				note("lazy: index%d in scalar context", n.dim)
			} else if n.dim < 1 || n.dim > rank {
				note("lazy: index%d out of range for rank %d", n.dim, rank)
			}
		case *callExpr:
			arity, ok := sema.Builtins[n.name]
			if !ok {
				note("lazy: unknown builtin %q", n.name)
			} else if len(n.args) != arity {
				note("lazy: %s takes %d argument(s), got %d", n.name, arity, len(n.args))
			}
		}
	})
	return err
}

// airExpr converts a lazy expression to AIR using the batch's
// canonical names. Offsets are cloned; a bare handle reads at the zero
// offset of the statement's rank.
func airExpr(e Expr, rank int, aname func(*Handle) string, sname func(*ScalarHandle) string) air.Expr {
	switch x := e.(type) {
	case *refExpr:
		off := make(air.Offset, rank)
		copy(off, x.off)
		return &air.RefExpr{Ref: air.Ref{Array: aname(x.h), Off: off}}
	case *Handle:
		return &air.RefExpr{Ref: air.Ref{Array: aname(x), Off: air.Zero(rank)}}
	case *ScalarHandle:
		return &air.ScalarExpr{Name: sname(x)}
	case *constExpr:
		return &air.ConstExpr{Val: x.val}
	case *indexExpr:
		return &air.IndexExpr{Dim: x.dim}
	case *binExpr:
		return &air.BinExpr{Op: x.op,
			X: airExpr(x.x, rank, aname, sname),
			Y: airExpr(x.y, rank, aname, sname)}
	case *unExpr:
		return &air.UnExpr{Op: x.op, X: airExpr(x.x, rank, aname, sname)}
	case *callExpr:
		args := make([]air.Expr, len(x.args))
		for i, a := range x.args {
			args[i] = airExpr(a, rank, aname, sname)
		}
		return &air.CallExpr{Name: x.name, Args: args}
	}
	return &air.ConstExpr{}
}
