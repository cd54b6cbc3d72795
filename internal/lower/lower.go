// Package lower translates a checked AST into the Array IR, putting
// every array statement into the normal form of §2.1:
//
//   - the left-hand side is written at offset zero,
//   - every reference is a constant offset from the statement region,
//   - no array is both read and written.
//
// When the source violates the read/write restriction — e.g.
// [R] A := A@east + B — lowering always introduces a compiler
// temporary:
//
//	[R] _t1 := A@east + B;
//	[R] A   := _t1;
//
// matching the paper's strategy: "The technique we describe always
// inserts compiler arrays, and it treats compiler and user arrays
// together as candidates for contraction. If a single statement does
// not truly require a compiler array, our algorithm is guaranteed to
// contract it unless a more favorable contraction is performed."
package lower

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/source"
	"repro/internal/token"
)

// Lower converts the checked program to AIR. Errors (e.g. recursion)
// accumulate in errs.
func Lower(info *sema.Info, errs *source.ErrorList) *air.Program {
	lw := &lowerer{
		info: info,
		errs: errs,
		prog: &air.Program{
			Name:    info.Program.Name,
			Arrays:  map[string]*air.ArrayInfo{},
			Scalars: map[string]*air.ScalarInfo{},
			Procs:   map[string]*air.Proc{},
		},
	}
	lw.declareVariables()
	lw.checkRecursion()
	for _, pd := range info.Program.Procs {
		lw.lowerProc(pd)
	}
	lw.prog.Main = lw.prog.Procs["main"]
	lw.prog.CoverAllocs()
	lw.computeEffects()
	return lw.prog
}

type lowerer struct {
	info *sema.Info
	errs *source.ErrorList
	prog *air.Program

	proc     string
	loopVars map[string]bool
	nextTemp int
	nextScal int
	nextBlk  int

	// current block under construction
	cur []air.Stmt
	// curPos is the source position of the statement being lowered;
	// every AIR statement it emits (including hoisted temporaries)
	// inherits it, so later diagnostics can point at the .za line.
	curPos source.Pos
}

// mangle maps a source-level name in the current procedure to its
// program-wide unique name.
func (lw *lowerer) mangle(name string) string {
	if lw.loopVars[name] {
		return lw.proc + "." + name
	}
	if _, ok := lw.info.Scalars[lw.proc+"."+name]; ok {
		return lw.proc + "." + name
	}
	if _, ok := lw.info.Arrays[lw.proc+"."+name]; ok {
		return lw.proc + "." + name
	}
	return name
}

func (lw *lowerer) declareVariables() {
	for key, a := range lw.info.Arrays {
		name := key
		if key[0] == '.' {
			name = key[1:]
		}
		lw.prog.Arrays[name] = &air.ArrayInfo{
			Name:     name,
			Elem:     a.Elem,
			Declared: a.Region,
			Alloc:    a.Region, // widened later
		}
	}
	for key, s := range lw.info.Scalars {
		name := key
		if key[0] == '.' {
			name = key[1:]
		}
		si := &air.ScalarInfo{Name: name, Type: s.Type, Config: s.IsConfig}
		if s.IsConfig {
			if v, ok := lw.info.ConfigInt[s.Name]; ok {
				si.Init = float64(v)
			} else if v, ok := lw.info.ConfigFloat[s.Name]; ok {
				si.Init = v
			}
		}
		lw.prog.Scalars[name] = si
	}
}

// checkRecursion rejects call cycles: AIR procedures share scalar
// storage for parameters, so recursion would be meaningless.
func (lw *lowerer) checkRecursion() {
	calls := map[string][]string{}
	for _, pd := range lw.info.Program.Procs {
		var collect func(stmts []ast.Stmt)
		var collectExpr func(e ast.Expr)
		collectExpr = func(e ast.Expr) {
			ast.Walk(e, func(x ast.Expr) bool {
				if c, ok := x.(*ast.CallExpr); ok {
					if _, isProc := lw.info.Procs[c.Name]; isProc {
						calls[pd.Name] = append(calls[pd.Name], c.Name)
					}
				}
				return true
			})
		}
		collect = func(stmts []ast.Stmt) {
			for _, s := range stmts {
				switch x := s.(type) {
				case *ast.ArrayAssign:
					collectExpr(x.RHS)
				case *ast.ScalarAssign:
					collectExpr(x.RHS)
				case *ast.IfStmt:
					collectExpr(x.Cond)
					collect(x.Then)
					collect(x.Else)
				case *ast.ForStmt:
					collectExpr(x.Lo)
					collectExpr(x.Hi)
					collect(x.Body)
				case *ast.WhileStmt:
					collectExpr(x.Cond)
					collect(x.Body)
				case *ast.CallStmt:
					collectExpr(x.Call)
				case *ast.ReturnStmt:
					collectExpr(x.Value)
				case *ast.WritelnStmt:
					for _, a := range x.Args {
						collectExpr(a)
					}
				}
			}
		}
		collect(pd.Body)
	}
	// DFS cycle detection.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(p string) bool
	visit = func(p string) bool {
		color[p] = gray
		for _, q := range calls[p] {
			switch color[q] {
			case gray:
				return false
			case white:
				if !visit(q) {
					return false
				}
			}
		}
		color[p] = black
		return true
	}
	for _, pd := range lw.info.Program.Procs {
		if color[pd.Name] == white && !visit(pd.Name) {
			lw.errs.Errorf(pd.Pos(), "recursive procedures are not supported (cycle through %s)", pd.Name)
			return
		}
	}
}

func (lw *lowerer) lowerProc(pd *ast.ProcDecl) {
	lw.proc = pd.Name
	lw.loopVars = map[string]bool{}
	p := &air.Proc{Name: pd.Name, HasResult: pd.Result.Kind != ast.InvalidType}
	for _, pa := range pd.Params {
		p.Params = append(p.Params, pd.Name+"."+pa.Name)
	}
	if p.HasResult {
		// The result travels in a dedicated scalar.
		lw.prog.Scalars[pd.Name+".$result"] = &air.ScalarInfo{
			Name: pd.Name + ".$result", Type: pd.Result.Kind,
		}
	}
	p.Body = lw.lowerStmts(pd.Body)
	lw.prog.Procs[pd.Name] = p
}

// lowerStmts converts a statement list into nodes, accumulating
// consecutive simple statements into Blocks.
func (lw *lowerer) lowerStmts(stmts []ast.Stmt) []air.Node {
	var nodes []air.Node
	saved := lw.cur
	lw.cur = nil
	flush := func() {
		if len(lw.cur) > 0 {
			nodes = append(nodes, &air.Block{ID: lw.nextBlk, Stmts: lw.cur})
			lw.nextBlk++
			lw.cur = nil
		}
	}
	for _, s := range stmts {
		lw.curPos = s.Pos()
		switch x := s.(type) {
		case *ast.ArrayAssign:
			lw.lowerArrayAssign(x)
		case *ast.ScalarAssign:
			lw.lowerScalarAssign(x)
		case *ast.CallStmt:
			lw.lowerCallStmt(x)
		case *ast.WritelnStmt:
			lw.lowerWriteln(x)
		case *ast.ReturnStmt:
			var v air.Expr
			if x.Value != nil {
				v = lw.lowerScalarExpr(x.Value)
			}
			lw.cur = append(lw.cur, &air.ReturnStmt{Value: v, Pos: x.StmtPos})
		case *ast.IfStmt:
			cond := lw.lowerScalarExpr(x.Cond)
			flush()
			nodes = append(nodes, &air.If{
				Cond: cond,
				Then: lw.lowerStmts(x.Then),
				Else: lw.lowerStmts(x.Else),
			})
		case *ast.ForStmt:
			lo := lw.lowerScalarExpr(x.Lo)
			hi := lw.lowerScalarExpr(x.Hi)
			flush()
			outer := lw.loopVars[x.Var]
			lw.loopVars[x.Var] = true
			mangled := lw.proc + "." + x.Var
			if _, ok := lw.prog.Scalars[mangled]; !ok {
				lw.prog.Scalars[mangled] = &air.ScalarInfo{Name: mangled, Type: ast.Integer}
			}
			body := lw.lowerStmts(x.Body)
			lw.loopVars[x.Var] = outer
			nodes = append(nodes, &air.Loop{Var: mangled, Lo: lo, Hi: hi, Down: x.Down, Body: body})
		case *ast.WhileStmt:
			cond := lw.lowerScalarExpr(x.Cond)
			flush()
			nodes = append(nodes, &air.While{Cond: cond, Body: lw.lowerStmts(x.Body)})
		}
	}
	flush()
	lw.cur = saved
	return nodes
}

// lowerArrayAssign normalizes one array statement.
func (lw *lowerer) lowerArrayAssign(x *ast.ArrayAssign) {
	reg := lw.info.StmtRegion[x]
	if reg == nil {
		return
	}
	lhs := lw.mangle(x.LHS)

	// Partial reduction: unnormalized statement of its own kind.
	if red, ok := x.RHS.(*ast.ReduceExpr); ok {
		src := lw.info.ReduceRegion[red]
		if src == nil {
			return
		}
		body := lw.lowerElemExpr(red.Body, src.Rank())
		var op air.ReduceOp
		switch red.Op {
		case token.REDPLUS:
			op = air.ReduceSum
		case token.REDSTAR:
			op = air.ReduceProd
		case token.REDMAX:
			op = air.ReduceMax
		case token.REDMIN:
			op = air.ReduceMin
		}
		lw.cur = append(lw.cur, &air.PartialReduceStmt{
			LHS: lhs, Dest: reg, Op: op, Region: src, Body: body, Pos: x.StmtPos,
		})
		return
	}

	rhs := lw.lowerElemExpr(x.RHS, reg.Rank())

	// Normal form property (i): the assigned array may not be read.
	readsLHS := false
	for _, r := range air.Refs(rhs) {
		if r.Array == lhs {
			readsLHS = true
			break
		}
	}
	if readsLHS {
		elem := ast.Double
		if t, ok := lw.info.ExprType[x.RHS]; ok && t.Kind != ast.InvalidType {
			elem = t.Kind
		}
		tmp := lw.newTemp(elem, reg)
		lw.emitArrayStmt(reg, tmp, rhs)
		lw.emitArrayStmt(reg, lhs, &air.RefExpr{Ref: air.Ref{Array: tmp, Off: air.Zero(reg.Rank())}})
		return
	}
	lw.emitArrayStmt(reg, lhs, rhs)
}

func (lw *lowerer) newTemp(elem ast.TypeKind, reg *sema.Region) string {
	lw.nextTemp++
	name := fmt.Sprintf("_t%d", lw.nextTemp)
	lw.prog.Arrays[name] = &air.ArrayInfo{
		Name: name, Elem: elem, Declared: reg, Alloc: reg, Temp: true,
	}
	return name
}

func (lw *lowerer) emitArrayStmt(reg *sema.Region, lhs string, rhs air.Expr) {
	s := &air.ArrayStmt{ID: lw.prog.NumStmts, Region: reg, LHS: lhs, RHS: rhs, Pos: lw.curPos}
	lw.prog.NumStmts++
	lw.cur = append(lw.cur, s)
}

func (lw *lowerer) lowerScalarAssign(x *ast.ScalarAssign) {
	lhs := lw.mangle(x.LHS)
	// A bare `target := f(args)` call lowers directly to a CallStmt;
	// nested calls are hoisted into temps by lowerScalarExpr.
	if c, ok := x.RHS.(*ast.CallExpr); ok {
		if _, isBuiltin := sema.Builtins[c.Name]; !isBuiltin {
			args := make([]air.Expr, len(c.Args))
			for i, a := range c.Args {
				args[i] = lw.lowerScalarExpr(a)
			}
			lw.cur = append(lw.cur, &air.CallStmt{Target: lhs, Proc: c.Name, Args: args, Pos: x.StmtPos})
			return
		}
	}
	rhs := lw.lowerScalarExpr(x.RHS)
	lw.cur = append(lw.cur, &air.ScalarStmt{LHS: lhs, RHS: rhs, Pos: x.StmtPos})
}

func (lw *lowerer) lowerCallStmt(x *ast.CallStmt) {
	args := make([]air.Expr, len(x.Call.Args))
	for i, a := range x.Call.Args {
		args[i] = lw.lowerScalarExpr(a)
	}
	lw.cur = append(lw.cur, &air.CallStmt{Proc: x.Call.Name, Args: args, Pos: x.StmtPos})
}

func (lw *lowerer) lowerWriteln(x *ast.WritelnStmt) {
	var args []air.WriteArg
	for _, a := range x.Args {
		if s, ok := a.(*ast.StringLit); ok {
			args = append(args, air.WriteArg{Str: s.Value})
			continue
		}
		args = append(args, air.WriteArg{Expr: lw.lowerScalarExpr(a)})
	}
	lw.cur = append(lw.cur, &air.WritelnStmt{Args: args, Pos: x.StmtPos})
}

// lowerScalarExpr lowers an expression in scalar context. Reductions
// and user-procedure calls are hoisted into preceding statements with
// fresh scalar temporaries.
func (lw *lowerer) lowerScalarExpr(e ast.Expr) air.Expr {
	switch x := e.(type) {
	case *ast.ReduceExpr:
		reg := lw.info.ReduceRegion[x]
		if reg == nil {
			return &air.ConstExpr{}
		}
		body := lw.lowerElemExpr(x.Body, reg.Rank())
		tmp := lw.newScalarTemp()
		var op air.ReduceOp
		switch x.Op {
		case token.REDPLUS:
			op = air.ReduceSum
		case token.REDSTAR:
			op = air.ReduceProd
		case token.REDMAX:
			op = air.ReduceMax
		case token.REDMIN:
			op = air.ReduceMin
		}
		lw.cur = append(lw.cur, &air.ReduceStmt{Target: tmp, Op: op, Region: reg, Body: body, Pos: lw.curPos})
		return &air.ScalarExpr{Name: tmp}
	case *ast.CallExpr:
		if _, isBuiltin := sema.Builtins[x.Name]; isBuiltin {
			args := make([]air.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = lw.lowerScalarExpr(a)
			}
			return &air.CallExpr{Name: x.Name, Args: args}
		}
		args := make([]air.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = lw.lowerScalarExpr(a)
		}
		tmp := lw.newScalarTemp()
		lw.cur = append(lw.cur, &air.CallStmt{Target: tmp, Proc: x.Name, Args: args, Pos: lw.curPos})
		return &air.ScalarExpr{Name: tmp}
	case *ast.BinaryExpr:
		l := lw.lowerScalarExpr(x.X)
		r := lw.lowerScalarExpr(x.Y)
		return &air.BinExpr{Op: binOp(x.Op), X: l, Y: r}
	case *ast.UnaryExpr:
		return &air.UnExpr{Op: unOp(x.Op), X: lw.lowerScalarExpr(x.X)}
	default:
		return lw.lowerLeaf(e, 0)
	}
}

func (lw *lowerer) newScalarTemp() string {
	lw.nextScal++
	name := fmt.Sprintf("_s%d", lw.nextScal)
	lw.prog.Scalars[name] = &air.ScalarInfo{Name: name, Type: ast.Double}
	return name
}

// lowerElemExpr lowers an expression in element-wise (array) context
// of the given rank.
func (lw *lowerer) lowerElemExpr(e ast.Expr, rank int) air.Expr {
	switch x := e.(type) {
	case *ast.BinaryExpr:
		return &air.BinExpr{
			Op: binOp(x.Op),
			X:  lw.lowerElemExpr(x.X, rank),
			Y:  lw.lowerElemExpr(x.Y, rank),
		}
	case *ast.UnaryExpr:
		return &air.UnExpr{Op: unOp(x.Op), X: lw.lowerElemExpr(x.X, rank)}
	case *ast.CallExpr:
		args := make([]air.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = lw.lowerElemExpr(a, rank)
		}
		return &air.CallExpr{Name: x.Name, Args: args}
	default:
		return lw.lowerLeaf(e, rank)
	}
}

// lowerLeaf lowers identifiers, @-references, and literals. rank > 0
// means array context (bare array idents become zero-offset refs).
func (lw *lowerer) lowerLeaf(e ast.Expr, rank int) air.Expr {
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Name {
		case "index1", "index2", "index3", "index4":
			if rank > 0 && lw.info.LookupScalar(lw.proc, x.Name) == nil && !lw.loopVars[x.Name] {
				return &air.IndexExpr{Dim: int(x.Name[5] - '0')}
			}
		}
		if !lw.loopVars[x.Name] {
			if a := lw.info.LookupArray(lw.proc, x.Name); a != nil {
				return &air.RefExpr{Ref: air.Ref{Array: lw.mangle(x.Name), Off: air.Zero(rank)}}
			}
		}
		return &air.ScalarExpr{Name: lw.mangle(x.Name)}
	case *ast.AtExpr:
		offs := lw.info.ConstOffsets(x)
		off := make(air.Offset, len(offs))
		copy(off, offs)
		return &air.RefExpr{Ref: air.Ref{Array: lw.mangle(x.Array), Off: off}}
	case *ast.IntLit:
		return &air.ConstExpr{Val: float64(x.Value)}
	case *ast.FloatLit:
		return &air.ConstExpr{Val: x.Value}
	case *ast.BoolLit:
		v := 0.0
		if x.Value {
			v = 1.0
		}
		return &air.ConstExpr{Val: v}
	}
	return &air.ConstExpr{}
}

func binOp(k token.Kind) air.Op {
	switch k {
	case token.PLUS:
		return air.OpAdd
	case token.MINUS:
		return air.OpSub
	case token.STAR:
		return air.OpMul
	case token.SLASH:
		return air.OpDiv
	case token.PERCENT:
		return air.OpRem
	case token.CARET:
		return air.OpPow
	case token.EQ:
		return air.OpEq
	case token.NEQ:
		return air.OpNe
	case token.LT:
		return air.OpLt
	case token.LE:
		return air.OpLe
	case token.GT:
		return air.OpGt
	case token.GE:
		return air.OpGe
	case token.AND:
		return air.OpAnd
	case token.OR:
		return air.OpOr
	}
	return air.OpAdd
}

func unOp(k token.Kind) air.Op {
	if k == token.NOT {
		return air.OpNot
	}
	return air.OpNeg
}
