// Package sema resolves names and types in a ZA program and evaluates
// all compile-time entities: config constants, regions, and directions.
//
// ZA specializes programs at compile time: config values (possibly
// overridden by the caller) are folded, so regions have concrete integer
// bounds by the end of analysis. This mirrors how the PLDI'98 experiments
// fix a problem size per compilation and lets every later phase reason
// about exact region volumes (reference weights, memory footprints).
package sema

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/source"
)

// MaxRank bounds array/region rank. The paper notes rank is "typically
// very small and effectively constant"; 4 covers all benchmarks.
const MaxRank = 4

// Region is a concrete index set [Lo[0]..Hi[0], ...], bounds inclusive.
type Region struct {
	Name string // empty for inline literals
	Lo   []int
	Hi   []int
}

// Rank returns the number of dimensions.
func (r *Region) Rank() int { return len(r.Lo) }

// Size returns the total number of index points.
func (r *Region) Size() int {
	n := 1
	for i := range r.Lo {
		n *= r.Extent(i)
	}
	return n
}

// Extent returns the number of indices along dimension i.
func (r *Region) Extent(i int) int { return r.Hi[i] - r.Lo[i] + 1 }

// ErrTooLarge refuses a count past an int64 (points, element-statements,
// bytes); ErrStorage is the refusal of a storage sum, naming it.
var ErrTooLarge = errors.New("exceeds 2^63-1")
var ErrStorage = fmt.Errorf("array storage %w bytes", ErrTooLarge)

// Points returns r's number of index points: 0 when an extent is empty
// (even after extents whose product overflows), ErrTooLarge when the
// product is past an int64, never a wrapped count.
func (r *Region) Points() (int64, error) {
	n, over := int64(1), false
	for i := range r.Lo {
		e := int64(r.Extent(i))
		switch {
		case e <= 0:
			return 0, nil
		case n > math.MaxInt64/e:
			over = true
		default:
			n *= e
		}
	}
	if over {
		return 0, ErrTooLarge
	}
	return n, nil
}

// AddStorage returns total plus the float64 storage over r, 8 bytes an
// index point. A product or a sum past an int64 is refused with
// ErrTooLarge, never wrapped.
func AddStorage(total int64, r *Region) (int64, error) {
	n, err := r.Points()
	if err != nil || n > (math.MaxInt64-total)/8 {
		return 0, ErrTooLarge
	}
	return total + 8*n, nil
}

// Equal reports whether two regions denote the same index set.
func (r *Region) Equal(o *Region) bool {
	if r.Rank() != o.Rank() {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] != o.Lo[i] || r.Hi[i] != o.Hi[i] {
			return false
		}
	}
	return true
}

func (r *Region) String() string {
	s := "["
	for i := range r.Lo {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d..%d", r.Lo[i], r.Hi[i])
	}
	return s + "]"
}

// Direction is a named constant offset vector.
type Direction struct {
	Name    string
	Offsets []int
}

// Array describes a declared array variable.
type Array struct {
	Name   string
	Elem   ast.TypeKind
	Region *Region // declared region
	Proc   string  // owning procedure, or "" for globals
}

// Rank returns the array's rank.
func (a *Array) Rank() int { return a.Region.Rank() }

// Scalar describes a declared scalar variable or config constant.
type Scalar struct {
	Name     string
	Type     ast.TypeKind
	IsConfig bool
	Proc     string // owning procedure, or "" for globals
}

// Proc describes a procedure signature.
type Proc struct {
	Name   string
	Params []*Scalar
	Result ast.TypeKind // InvalidType if none
	Decl   *ast.ProcDecl
}

// Info is the result of semantic analysis.
type Info struct {
	Program *ast.Program

	ConfigInt   map[string]int64
	ConfigFloat map[string]float64

	Regions    map[string]*Region
	Directions map[string]*Direction
	Arrays     map[string]*Array  // key "proc.name" or ".name" for globals
	Scalars    map[string]*Scalar // same keying
	Procs      map[string]*Proc

	// StmtRegion maps each array statement and each reduce expression
	// to its resolved concrete region.
	StmtRegion   map[*ast.ArrayAssign]*Region
	ReduceRegion map[*ast.ReduceExpr]*Region

	// ExprType records the computed type of every expression. Array-valued
	// subexpressions (inside array statements) are tagged with the element
	// type plus IsArray.
	ExprType map[ast.Expr]Type
}

// Type is the checked type of an expression.
type Type struct {
	Kind    ast.TypeKind
	IsArray bool
}

func (t Type) String() string {
	if t.IsArray {
		return "array of " + t.Kind.String()
	}
	return t.Kind.String()
}

// LookupArray finds an array visible in proc (locals shadow globals).
func (in *Info) LookupArray(proc, name string) *Array {
	if a, ok := in.Arrays[proc+"."+name]; ok {
		return a
	}
	return in.Arrays["."+name]
}

// LookupScalar finds a scalar visible in proc.
func (in *Info) LookupScalar(proc, name string) *Scalar {
	if s, ok := in.Scalars[proc+"."+name]; ok {
		return s
	}
	return in.Scalars["."+name]
}

// Builtins maps math builtin names to their arity.
var Builtins = map[string]int{
	"sqrt": 1, "exp": 1, "log": 1, "sin": 1, "cos": 1, "tan": 1,
	"abs": 1, "floor": 1, "ceil": 1, "sign": 1,
	"min": 2, "max": 2, "pow": 2, "mod": 2, "atan2": 2,
}

// checker carries analysis state.
type checker struct {
	info *Info
	errs *source.ErrorList

	proc    string          // current procedure name
	loopVar map[string]bool // loop variables in scope (integers)
	rank    int             // rank of enclosing array context (0 = scalar)
}

// Check analyzes prog, folding configs with the given overrides
// (override values replace config defaults by name). It returns the
// analysis result; errors accumulate in errs.
func Check(prog *ast.Program, overrides map[string]int64, errs *source.ErrorList) *Info {
	info := &Info{
		Program:      prog,
		ConfigInt:    map[string]int64{},
		ConfigFloat:  map[string]float64{},
		Regions:      map[string]*Region{},
		Directions:   map[string]*Direction{},
		Arrays:       map[string]*Array{},
		Scalars:      map[string]*Scalar{},
		Procs:        map[string]*Proc{},
		StmtRegion:   map[*ast.ArrayAssign]*Region{},
		ReduceRegion: map[*ast.ReduceExpr]*Region{},
		ExprType:     map[ast.Expr]Type{},
	}
	c := &checker{info: info, errs: errs, loopVar: map[string]bool{}}

	// Pass 1: configs (in order; later configs may use earlier ones).
	for _, d := range prog.Decls {
		cd, ok := d.(*ast.ConfigDecl)
		if !ok {
			continue
		}
		c.declareConfig(cd, overrides)
	}
	// Pass 2: regions and directions (may reference configs).
	for _, d := range prog.Decls {
		switch x := d.(type) {
		case *ast.RegionDecl:
			c.declareRegion(x)
		case *ast.DirectionDecl:
			c.declareDirection(x)
		}
	}
	// Pass 3: global variables.
	for _, d := range prog.Decls {
		if vd, ok := d.(*ast.VarDecl); ok {
			c.declareVars(vd, "")
		}
	}
	// Pass 4: procedure signatures, then bodies.
	for _, p := range prog.Procs {
		c.declareProc(p)
	}
	if _, ok := info.Procs["main"]; !ok {
		errs.Errorf(prog.Pos(), "program has no main procedure")
	}
	for _, p := range prog.Procs {
		c.checkProcBody(p)
	}
	return info
}

func (c *checker) declareConfig(cd *ast.ConfigDecl, overrides map[string]int64) {
	name := cd.Name
	if _, dup := c.info.Scalars["."+name]; dup {
		c.errs.Errorf(cd.Pos(), "duplicate declaration of %s", name)
		return
	}
	c.info.Scalars["."+name] = &Scalar{Name: name, Type: cd.Type.Kind, IsConfig: true}
	if ov, ok := overrides[name]; ok {
		switch cd.Type.Kind {
		case ast.Integer:
			c.info.ConfigInt[name] = ov
		case ast.Double:
			c.info.ConfigFloat[name] = float64(ov)
		default:
			c.errs.Errorf(cd.Pos(), "config %s: cannot override %s config", name, cd.Type.Kind)
		}
		return
	}
	switch cd.Type.Kind {
	case ast.Integer:
		v, ok := c.constInt(cd.Default)
		if !ok {
			c.errs.Errorf(cd.Pos(), "config %s: default is not a compile-time integer", name)
			return
		}
		c.info.ConfigInt[name] = v
	case ast.Double:
		v, ok := c.constFloat(cd.Default)
		if !ok {
			c.errs.Errorf(cd.Pos(), "config %s: default is not a compile-time constant", name)
			return
		}
		c.info.ConfigFloat[name] = v
	default:
		c.errs.Errorf(cd.Pos(), "config %s: unsupported config type %s", name, cd.Type.Kind)
	}
}

func (c *checker) declareRegion(rd *ast.RegionDecl) {
	if _, dup := c.info.Regions[rd.Name]; dup {
		c.errs.Errorf(rd.Pos(), "duplicate region %s", rd.Name)
		return
	}
	r := c.evalRegionLit(rd.Lit, rd.Name)
	if r != nil {
		c.info.Regions[rd.Name] = r
	}
}

func (c *checker) evalRegionLit(lit *ast.RegionLit, name string) *Region {
	if lit == nil {
		return nil
	}
	if len(lit.Ranges) > MaxRank {
		c.errs.Errorf(lit.Pos(), "region rank %d exceeds maximum %d", len(lit.Ranges), MaxRank)
		return nil
	}
	r := &Region{Name: name}
	for _, rg := range lit.Ranges {
		lo, ok1 := c.constInt(rg.Lo)
		hi, ok2 := c.constInt(rg.Hi)
		if !ok1 || !ok2 {
			c.errs.Errorf(lit.Pos(), "region bounds must be compile-time integers")
			return nil
		}
		if lo > hi {
			c.errs.Errorf(lit.Pos(), "empty region dimension %d..%d", lo, hi)
			return nil
		}
		r.Lo = append(r.Lo, int(lo))
		r.Hi = append(r.Hi, int(hi))
	}
	return r
}

func (c *checker) declareDirection(dd *ast.DirectionDecl) {
	if _, dup := c.info.Directions[dd.Name]; dup {
		c.errs.Errorf(dd.Pos(), "duplicate direction %s", dd.Name)
		return
	}
	d := &Direction{Name: dd.Name}
	for _, o := range dd.Offsets {
		v, ok := c.constInt(o)
		if !ok {
			c.errs.Errorf(dd.Pos(), "direction %s: offsets must be compile-time integers", dd.Name)
			return
		}
		d.Offsets = append(d.Offsets, int(v))
	}
	c.info.Directions[dd.Name] = d
}

func (c *checker) declareVars(vd *ast.VarDecl, proc string) {
	for _, name := range vd.Names {
		key := proc + "." + name
		if _, dup := c.info.Arrays[key]; dup {
			c.errs.Errorf(vd.Pos(), "duplicate declaration of %s", name)
			continue
		}
		if _, dup := c.info.Scalars[key]; dup {
			c.errs.Errorf(vd.Pos(), "duplicate declaration of %s", name)
			continue
		}
		if vd.Region != nil {
			reg := c.resolveRegion(vd.Region)
			if reg == nil {
				continue
			}
			c.info.Arrays[key] = &Array{Name: name, Elem: vd.Type.Kind, Region: reg, Proc: proc}
		} else {
			c.info.Scalars[key] = &Scalar{Name: name, Type: vd.Type.Kind, Proc: proc}
		}
	}
}

func (c *checker) resolveRegion(re *ast.RegionExpr) *Region {
	if re == nil {
		return nil
	}
	if re.Name != "" {
		r, ok := c.info.Regions[re.Name]
		if !ok {
			c.errs.Errorf(re.Pos(), "undefined region %s", re.Name)
			return nil
		}
		return r
	}
	return c.evalRegionLit(re.Lit, "")
}

func (c *checker) declareProc(pd *ast.ProcDecl) {
	if _, dup := c.info.Procs[pd.Name]; dup {
		c.errs.Errorf(pd.Pos(), "duplicate procedure %s", pd.Name)
		return
	}
	p := &Proc{Name: pd.Name, Result: pd.Result.Kind, Decl: pd}
	for _, pa := range pd.Params {
		s := &Scalar{Name: pa.Name, Type: pa.Type.Kind, Proc: pd.Name}
		p.Params = append(p.Params, s)
		c.info.Scalars[pd.Name+"."+pa.Name] = s
	}
	c.info.Procs[pd.Name] = p
	if pd.Name == "main" && (len(pd.Params) > 0 || pd.Result.Kind != ast.InvalidType) {
		c.errs.Errorf(pd.Pos(), "main must take no parameters and return nothing")
	}
	for _, l := range pd.Locals {
		c.declareVars(l, pd.Name)
	}
}

func (c *checker) checkProcBody(pd *ast.ProcDecl) {
	c.proc = pd.Name
	c.loopVar = map[string]bool{}
	c.checkStmts(pd.Body)
}

func (c *checker) checkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.ArrayAssign:
		c.checkArrayAssign(x)
	case *ast.ScalarAssign:
		c.checkScalarAssign(x)
	case *ast.IfStmt:
		t := c.checkExpr(x.Cond)
		if t.IsArray || t.Kind != ast.Boolean {
			c.errs.Errorf(x.Pos(), "if condition must be a scalar boolean, got %s", t)
		}
		c.checkStmts(x.Then)
		c.checkStmts(x.Else)
	case *ast.ForStmt:
		c.checkScalarIntExpr(x.Lo, "for bound")
		c.checkScalarIntExpr(x.Hi, "for bound")
		if c.info.LookupScalar(c.proc, x.Var) != nil {
			c.errs.Errorf(x.Pos(), "loop variable %s shadows a declared variable", x.Var)
		}
		outer := c.loopVar[x.Var]
		c.loopVar[x.Var] = true
		c.checkStmts(x.Body)
		c.loopVar[x.Var] = outer
	case *ast.WhileStmt:
		t := c.checkExpr(x.Cond)
		if t.IsArray || t.Kind != ast.Boolean {
			c.errs.Errorf(x.Pos(), "while condition must be a scalar boolean, got %s", t)
		}
		c.checkStmts(x.Body)
	case *ast.CallStmt:
		c.checkCall(x.Call, true)
	case *ast.ReturnStmt:
		p := c.info.Procs[c.proc]
		switch {
		case x.Value == nil && p.Result != ast.InvalidType:
			c.errs.Errorf(x.Pos(), "%s must return a %s value", c.proc, p.Result)
		case x.Value != nil && p.Result == ast.InvalidType:
			c.errs.Errorf(x.Pos(), "%s returns no value", c.proc)
		case x.Value != nil:
			t := c.checkExpr(x.Value)
			if t.IsArray || !assignable(p.Result, t.Kind) {
				c.errs.Errorf(x.Pos(), "cannot return %s from %s (want %s)", t, c.proc, p.Result)
			}
		}
	case *ast.WritelnStmt:
		for _, a := range x.Args {
			if _, ok := a.(*ast.StringLit); ok {
				continue
			}
			t := c.checkExpr(a)
			if t.IsArray {
				c.errs.Errorf(a.Pos(), "cannot writeln an array expression")
			}
		}
	}
}

func (c *checker) checkScalarIntExpr(e ast.Expr, what string) {
	t := c.checkExpr(e)
	if t.IsArray || t.Kind != ast.Integer {
		c.errs.Errorf(e.Pos(), "%s must be a scalar integer, got %s", what, t)
	}
}

func (c *checker) checkArrayAssign(x *ast.ArrayAssign) {
	reg := c.resolveRegion(x.Region)
	if reg == nil {
		return
	}
	c.info.StmtRegion[x] = reg
	lhs := c.info.LookupArray(c.proc, x.LHS)
	if lhs == nil {
		c.errs.Errorf(x.Pos(), "undefined array %s on left-hand side", x.LHS)
		return
	}
	if lhs.Rank() != reg.Rank() {
		c.errs.Errorf(x.Pos(), "array %s has rank %d but statement region has rank %d",
			x.LHS, lhs.Rank(), reg.Rank())
		return
	}
	// Partial reduction: the entire RHS is a reduction whose source
	// region collapses onto the statement region.
	if red, ok := x.RHS.(*ast.ReduceExpr); ok {
		src := c.resolveRegion(red.Region)
		if src == nil {
			return
		}
		c.info.ReduceRegion[red] = src
		if src.Rank() != reg.Rank() {
			c.errs.Errorf(x.Pos(), "partial reduction source rank %d does not match destination rank %d",
				src.Rank(), reg.Rank())
			return
		}
		for k := 0; k < reg.Rank(); k++ {
			if reg.Extent(k) != 1 && (reg.Lo[k] != src.Lo[k] || reg.Hi[k] != src.Hi[k]) {
				c.errs.Errorf(x.Pos(), "partial reduction: dimension %d of the destination must either collapse to extent 1 or equal the source range", k+1)
			}
		}
		c.rank = src.Rank()
		t := c.checkExpr(red.Body)
		c.rank = 0
		c.info.ExprType[x.RHS] = t
		if t.Kind == ast.Boolean {
			c.errs.Errorf(x.Pos(), "cannot reduce boolean values with %s", red.Op)
		}
		if !t.IsArray {
			c.errs.Errorf(x.Pos(), "reduction body must reference at least one array")
		}
		return
	}
	c.rank = reg.Rank()
	t := c.checkExpr(x.RHS)
	c.rank = 0
	if t.Kind == ast.Boolean && lhs.Elem != ast.Boolean {
		c.errs.Errorf(x.Pos(), "cannot assign boolean expression to %s array %s", lhs.Elem, x.LHS)
	}
	if t.Kind == ast.Double && lhs.Elem == ast.Integer {
		c.errs.Errorf(x.Pos(), "cannot assign double expression to integer array %s", x.LHS)
	}
}

func (c *checker) checkScalarAssign(x *ast.ScalarAssign) {
	if c.loopVar[x.LHS] {
		c.errs.Errorf(x.Pos(), "cannot assign to loop variable %s", x.LHS)
		return
	}
	lhs := c.info.LookupScalar(c.proc, x.LHS)
	if lhs == nil {
		if c.info.LookupArray(c.proc, x.LHS) != nil {
			c.errs.Errorf(x.Pos(), "array assignment to %s needs a region prefix, e.g. [R] %s := ...", x.LHS, x.LHS)
		} else {
			c.errs.Errorf(x.Pos(), "undefined variable %s", x.LHS)
		}
		return
	}
	if lhs.IsConfig {
		c.errs.Errorf(x.Pos(), "cannot assign to config constant %s", x.LHS)
		return
	}
	t := c.checkExpr(x.RHS)
	if t.IsArray {
		c.errs.Errorf(x.Pos(), "cannot assign array expression to scalar %s", x.LHS)
		return
	}
	if !assignable(lhs.Type, t.Kind) {
		c.errs.Errorf(x.Pos(), "cannot assign %s to %s variable %s", t, lhs.Type, x.LHS)
	}
}

// assignable reports whether a value of type from may be stored in to.
// Integers widen to doubles; nothing else converts implicitly.
func assignable(to, from ast.TypeKind) bool {
	if to == from {
		return true
	}
	return to == ast.Double && from == ast.Integer
}

// ---------------------------------------------------------------------------
// Expressions

func (c *checker) checkExpr(e ast.Expr) Type {
	t := c.exprType(e)
	c.info.ExprType[e] = t
	return t
}

func (c *checker) exprType(e ast.Expr) Type {
	switch x := e.(type) {
	case *ast.IntLit:
		return Type{Kind: ast.Integer}
	case *ast.FloatLit:
		return Type{Kind: ast.Double}
	case *ast.BoolLit:
		return Type{Kind: ast.Boolean}
	case *ast.StringLit:
		c.errs.Errorf(x.Pos(), "string literal not allowed here")
		return Type{Kind: ast.InvalidType}
	case *ast.Ident:
		return c.identType(x)
	case *ast.AtExpr:
		return c.atType(x)
	case *ast.UnaryExpr:
		t := c.checkExpr(x.X)
		switch x.Op.String() {
		case "-":
			if t.Kind == ast.Boolean {
				c.errs.Errorf(x.Pos(), "cannot negate a boolean")
			}
			return t
		case "!":
			if t.Kind != ast.Boolean {
				c.errs.Errorf(x.Pos(), "operator ! requires a boolean, got %s", t)
			}
			return t
		}
		return t
	case *ast.BinaryExpr:
		return c.binaryType(x)
	case *ast.CallExpr:
		return c.checkCall(x, false)
	case *ast.ReduceExpr:
		return c.reduceType(x)
	}
	return Type{Kind: ast.InvalidType}
}

// indexDim returns d for the virtual array identifier "index<d>"
// (ZPL's Index1..Index4), or 0 when the name is not one.
func indexDim(name string) int {
	switch name {
	case "index1":
		return 1
	case "index2":
		return 2
	case "index3":
		return 3
	case "index4":
		return 4
	}
	return 0
}

func (c *checker) identType(x *ast.Ident) Type {
	if d := indexDim(x.Name); d > 0 {
		if c.rank == 0 {
			c.errs.Errorf(x.Pos(), "%s used outside an array statement", x.Name)
			return Type{Kind: ast.Integer}
		}
		if d > c.rank {
			c.errs.Errorf(x.Pos(), "%s exceeds the statement region rank %d", x.Name, c.rank)
		}
		return Type{Kind: ast.Integer, IsArray: true}
	}
	if c.loopVar[x.Name] {
		return Type{Kind: ast.Integer}
	}
	if s := c.info.LookupScalar(c.proc, x.Name); s != nil {
		return Type{Kind: s.Type}
	}
	if a := c.info.LookupArray(c.proc, x.Name); a != nil {
		if c.rank == 0 {
			c.errs.Errorf(x.Pos(), "array %s used in scalar context", x.Name)
			return Type{Kind: a.Elem}
		}
		if a.Rank() != c.rank {
			c.errs.Errorf(x.Pos(), "array %s has rank %d, statement region has rank %d",
				x.Name, a.Rank(), c.rank)
		}
		return Type{Kind: a.Elem, IsArray: true}
	}
	c.errs.Errorf(x.Pos(), "undefined variable %s", x.Name)
	return Type{Kind: ast.InvalidType}
}

func (c *checker) atType(x *ast.AtExpr) Type {
	if c.rank == 0 {
		c.errs.Errorf(x.Pos(), "@-reference %s outside an array statement", x.Array)
	}
	a := c.info.LookupArray(c.proc, x.Array)
	if a == nil {
		c.errs.Errorf(x.Pos(), "undefined array %s", x.Array)
		return Type{Kind: ast.InvalidType, IsArray: true}
	}
	var rank int
	if x.DirName != "" {
		d, ok := c.info.Directions[x.DirName]
		if !ok {
			c.errs.Errorf(x.Pos(), "undefined direction %s", x.DirName)
			return Type{Kind: a.Elem, IsArray: true}
		}
		rank = len(d.Offsets)
	} else {
		rank = len(x.Offsets)
		for _, o := range x.Offsets {
			if _, ok := c.constInt(o); !ok {
				c.errs.Errorf(o.Pos(), "@-offsets must be compile-time integers")
			}
		}
	}
	if rank != a.Rank() {
		c.errs.Errorf(x.Pos(), "direction rank %d does not match array %s rank %d",
			rank, x.Array, a.Rank())
	}
	if c.rank != 0 && a.Rank() != c.rank {
		c.errs.Errorf(x.Pos(), "array %s has rank %d, statement region has rank %d",
			x.Array, a.Rank(), c.rank)
	}
	return Type{Kind: a.Elem, IsArray: true}
}

func (c *checker) binaryType(x *ast.BinaryExpr) Type {
	tx := c.checkExpr(x.X)
	ty := c.checkExpr(x.Y)
	isArr := tx.IsArray || ty.IsArray
	if isArr && c.rank == 0 {
		c.errs.Errorf(x.Pos(), "array operands outside an array statement")
	}
	switch x.Op.Precedence() {
	case 1, 2: // | &
		if tx.Kind != ast.Boolean || ty.Kind != ast.Boolean {
			c.errs.Errorf(x.Pos(), "operator %s requires booleans, got %s and %s", x.Op, tx, ty)
		}
		return Type{Kind: ast.Boolean, IsArray: isArr}
	case 3: // comparisons
		if tx.Kind == ast.Boolean != (ty.Kind == ast.Boolean) {
			c.errs.Errorf(x.Pos(), "cannot compare %s with %s", tx, ty)
		}
		return Type{Kind: ast.Boolean, IsArray: isArr}
	default: // arithmetic
		if tx.Kind == ast.Boolean || ty.Kind == ast.Boolean {
			c.errs.Errorf(x.Pos(), "operator %s requires numeric operands, got %s and %s", x.Op, tx, ty)
			return Type{Kind: ast.InvalidType, IsArray: isArr}
		}
		k := ast.Integer
		if tx.Kind == ast.Double || ty.Kind == ast.Double {
			k = ast.Double
		}
		return Type{Kind: k, IsArray: isArr}
	}
}

func (c *checker) checkCall(x *ast.CallExpr, asStmt bool) Type {
	if arity, ok := Builtins[x.Name]; ok {
		if len(x.Args) != arity {
			c.errs.Errorf(x.Pos(), "%s takes %d arguments, got %d", x.Name, arity, len(x.Args))
		}
		isArr := false
		for _, a := range x.Args {
			t := c.checkExpr(a)
			if t.Kind == ast.Boolean {
				c.errs.Errorf(a.Pos(), "%s requires numeric arguments", x.Name)
			}
			isArr = isArr || t.IsArray
		}
		k := ast.Double
		if x.Name == "mod" || x.Name == "sign" {
			k = ast.Integer
		}
		return Type{Kind: k, IsArray: isArr}
	}
	p, ok := c.info.Procs[x.Name]
	if !ok {
		c.errs.Errorf(x.Pos(), "undefined procedure or function %s", x.Name)
		return Type{Kind: ast.InvalidType}
	}
	if len(x.Args) != len(p.Params) {
		c.errs.Errorf(x.Pos(), "%s takes %d arguments, got %d", x.Name, len(p.Params), len(x.Args))
	}
	for i, a := range x.Args {
		t := c.checkExpr(a)
		if i < len(p.Params) {
			if t.IsArray || !assignable(p.Params[i].Type, t.Kind) {
				c.errs.Errorf(a.Pos(), "argument %d of %s: cannot pass %s as %s",
					i+1, x.Name, t, p.Params[i].Type)
			}
		}
	}
	if !asStmt && p.Result == ast.InvalidType {
		c.errs.Errorf(x.Pos(), "%s returns no value", x.Name)
	}
	return Type{Kind: p.Result}
}

func (c *checker) reduceType(x *ast.ReduceExpr) Type {
	if c.rank != 0 {
		c.errs.Errorf(x.Pos(), "reductions cannot nest inside array statements")
	}
	reg := c.resolveRegion(x.Region)
	if reg == nil {
		return Type{Kind: ast.Double}
	}
	c.info.ReduceRegion[x] = reg
	c.rank = reg.Rank()
	t := c.checkExpr(x.Body)
	c.rank = 0
	if t.Kind == ast.Boolean {
		c.errs.Errorf(x.Pos(), "cannot reduce boolean values with %s", x.Op)
	}
	if !t.IsArray {
		c.errs.Errorf(x.Pos(), "reduction body must reference at least one array")
	}
	return Type{Kind: t.Kind}
}

// ---------------------------------------------------------------------------
// Compile-time constant evaluation (integers over configs and literals)

func (c *checker) constInt(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.Ident:
		v, ok := c.info.ConfigInt[x.Name]
		return v, ok
	case *ast.UnaryExpr:
		if x.Op.String() == "-" {
			v, ok := c.constInt(x.X)
			return -v, ok
		}
	case *ast.BinaryExpr:
		a, ok1 := c.constInt(x.X)
		b, ok2 := c.constInt(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op.String() {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		case "/":
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case "%":
			if b == 0 {
				return 0, false
			}
			return a % b, true
		}
	}
	return 0, false
}

func (c *checker) constFloat(e ast.Expr) (float64, bool) {
	switch x := e.(type) {
	case *ast.FloatLit:
		return x.Value, true
	case *ast.IntLit:
		return float64(x.Value), true
	case *ast.Ident:
		if v, ok := c.info.ConfigFloat[x.Name]; ok {
			return v, true
		}
		if v, ok := c.info.ConfigInt[x.Name]; ok {
			return float64(v), true
		}
		return 0, false
	case *ast.UnaryExpr:
		if x.Op.String() == "-" {
			v, ok := c.constFloat(x.X)
			return -v, ok
		}
	case *ast.BinaryExpr:
		a, ok1 := c.constFloat(x.X)
		b, ok2 := c.constFloat(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op.String() {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		case "/":
			if b == 0 {
				return math.Inf(1), true
			}
			return a / b, true
		}
	}
	return 0, false
}

// ConstOffsets evaluates the offset vector of an @-expression against
// the analysis results: either the named direction or the literal
// offsets. It returns nil when the expression is malformed.
func (in *Info) ConstOffsets(x *ast.AtExpr) []int {
	if x.DirName != "" {
		if d, ok := in.Directions[x.DirName]; ok {
			return d.Offsets
		}
		return nil
	}
	c := &checker{info: in, errs: &source.ErrorList{}}
	offs := make([]int, 0, len(x.Offsets))
	for _, o := range x.Offsets {
		v, ok := c.constInt(o)
		if !ok {
			return nil
		}
		offs = append(offs, int(v))
	}
	return offs
}
