// Package air defines the Array IR: the normalized array-statement
// representation of §2.1 of Lewis, Lin & Snyder (PLDI 1998).
//
// A normalized array statement has the form
//
//	[R] A := f(A1@d1, A2@d2, ..., As@ds)
//
// where R is a concrete region, the left-hand side is written at offset
// zero, every array reference is a constant offset from R, all arrays
// share the region's rank, and no array is both read and written.
// Lowering (package lower) establishes these properties, inserting
// compiler temporaries where the source violates them.
//
// Besides normalized statements, blocks may contain unnormalized
// statements — scalar assignments, reductions, communication
// primitives, I/O — which participate in dependence ordering but are
// never fused or contracted ("unnormalized statements do not prevent
// independent normalized statements from being optimized").
package air

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/source"
)

// Offset is a constant offset vector: the d of A@d.
type Offset []int

// IsZero reports whether every component is zero.
func (o Offset) IsZero() bool {
	for _, v := range o {
		if v != 0 {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality.
func (o Offset) Equal(p Offset) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of o.
func (o Offset) Clone() Offset {
	c := make(Offset, len(o))
	copy(c, o)
	return c
}

func (o Offset) String() string {
	parts := make([]string, len(o))
	for i, v := range o {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Zero returns the null offset vector of the given rank.
func Zero(rank int) Offset { return make(Offset, rank) }

// Ref is a single array reference at a constant offset.
type Ref struct {
	Array string
	Off   Offset
}

func (r Ref) String() string {
	if r.Off.IsZero() {
		return r.Array
	}
	return r.Array + "@" + r.Off.String()
}

// ---------------------------------------------------------------------------
// Element-wise expressions

// Op enumerates the element-wise and scalar operators.
type Op int

// Operator kinds.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpPow
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNeg
	OpNot
)

var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpRem: "%", OpPow: "^",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&", OpOr: "|", OpNeg: "-", OpNot: "!",
}

func (o Op) String() string { return opNames[o] }

// Expr is an element-wise (or, without RefExprs, scalar) expression.
type Expr interface {
	exprNode()
	String() string
}

// RefExpr reads an array element at a constant offset from the
// statement's current index.
type RefExpr struct {
	Ref Ref
}

// ScalarExpr reads a scalar variable (broadcast in array context).
type ScalarExpr struct {
	Name string
}

// IndexExpr evaluates to the current iteration index along dimension
// Dim (1-based) — ZPL's Index1..Index4 virtual arrays. It consumes no
// memory and induces no dependences.
type IndexExpr struct {
	Dim int
}

// ConstExpr is a numeric or boolean constant (booleans are 0/1).
type ConstExpr struct {
	Val float64
}

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   Op
	X, Y Expr
}

// UnExpr applies a unary operator.
type UnExpr struct {
	Op Op
	X  Expr
}

// CallExpr applies a builtin math function element-wise.
type CallExpr struct {
	Name string
	Args []Expr
}

func (*RefExpr) exprNode()    {}
func (*ScalarExpr) exprNode() {}
func (*IndexExpr) exprNode()  {}
func (*ConstExpr) exprNode()  {}
func (*BinExpr) exprNode()    {}
func (*UnExpr) exprNode()     {}
func (*CallExpr) exprNode()   {}

func (e *RefExpr) String() string    { return e.Ref.String() }
func (e *ScalarExpr) String() string { return e.Name }
func (e *IndexExpr) String() string  { return fmt.Sprintf("index%d", e.Dim) }
func (e *ConstExpr) String() string {
	if e.Val == float64(int64(e.Val)) && e.Val < 1e15 && e.Val > -1e15 {
		return fmt.Sprintf("%.1f", e.Val)
	}
	return fmt.Sprintf("%g", e.Val)
}
func (e *BinExpr) String() string {
	return "(" + e.X.String() + " " + e.Op.String() + " " + e.Y.String() + ")"
}
func (e *UnExpr) String() string { return e.Op.String() + e.X.String() }
func (e *CallExpr) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

// Walk visits e and its subexpressions in pre-order.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinExpr:
		Walk(x.X, fn)
		Walk(x.Y, fn)
	case *UnExpr:
		Walk(x.X, fn)
	case *CallExpr:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	}
}

// Refs returns every array reference in e, in visit order. Every pass
// from dep to mhp asks for a statement's reads, so this is Walk
// specialized: direct recursion, and one allocation of the counted size
// in place of a slice grown from nil.
func Refs(e Expr) []Ref {
	n := countRefs(e)
	if n == 0 {
		return nil
	}
	return appendRefs(make([]Ref, 0, n), e)
}

func countRefs(e Expr) int {
	switch x := e.(type) {
	case *RefExpr:
		return 1
	case *BinExpr:
		return countRefs(x.X) + countRefs(x.Y)
	case *UnExpr:
		return countRefs(x.X)
	case *CallExpr:
		n := 0
		for _, a := range x.Args {
			n += countRefs(a)
		}
		return n
	}
	return 0
}

func appendRefs(refs []Ref, e Expr) []Ref {
	switch x := e.(type) {
	case *RefExpr:
		return append(refs, x.Ref)
	case *BinExpr:
		return appendRefs(appendRefs(refs, x.X), x.Y)
	case *UnExpr:
		return appendRefs(refs, x.X)
	case *CallExpr:
		for _, a := range x.Args {
			refs = appendRefs(refs, a)
		}
	}
	return refs
}

// ScalarReads returns the names of scalar variables read by e, each
// once, in visit order.
func ScalarReads(e Expr) []string { return appendScalarReads(nil, e) }

func appendScalarReads(names []string, e Expr) []string {
	switch x := e.(type) {
	case *ScalarExpr:
		for _, n := range names {
			if n == x.Name {
				return names
			}
		}
		return append(names, x.Name)
	case *BinExpr:
		return appendScalarReads(appendScalarReads(names, x.X), x.Y)
	case *UnExpr:
		return appendScalarReads(names, x.X)
	case *CallExpr:
		for _, a := range x.Args {
			names = appendScalarReads(names, a)
		}
	}
	return names
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement within a straight-line block.
type Stmt interface {
	stmtNode()
	String() string
}

// ArrayStmt is a normalized array statement: [R] LHS := RHS.
type ArrayStmt struct {
	ID     int // unique within the program, assigned by lowering
	Region *sema.Region
	LHS    string
	RHS    Expr
	Pos    source.Pos // source position of the originating statement
}

func (s *ArrayStmt) String() string {
	return fmt.Sprintf("%s %s := %s;", s.Region, s.LHS, s.RHS)
}

// ScalarStmt assigns a scalar expression (no RefExprs) to a scalar.
type ScalarStmt struct {
	LHS string
	RHS Expr
	Pos source.Pos
}

func (s *ScalarStmt) String() string { return s.LHS + " := " + s.RHS.String() + ";" }

// ReduceOp enumerates reduction operators.
type ReduceOp int

// Reduction operator kinds.
const (
	ReduceSum ReduceOp = iota
	ReduceProd
	ReduceMax
	ReduceMin
)

func (r ReduceOp) String() string {
	switch r {
	case ReduceSum:
		return "+<<"
	case ReduceProd:
		return "*<<"
	case ReduceMax:
		return "max<<"
	case ReduceMin:
		return "min<<"
	}
	return "?<<"
}

// Identity returns the reduction's identity element.
func (r ReduceOp) Identity() float64 {
	switch r {
	case ReduceSum:
		return 0
	case ReduceProd:
		return 1
	case ReduceMax:
		return math.Inf(-1)
	case ReduceMin:
		return math.Inf(1)
	}
	return 0
}

// ReduceStmt reduces an element-wise expression over a region into a
// scalar. Reductions are unnormalized: they order but never fuse.
type ReduceStmt struct {
	Target string
	Op     ReduceOp
	Region *sema.Region
	Body   Expr
	Pos    source.Pos
}

func (s *ReduceStmt) String() string {
	return fmt.Sprintf("%s := %s %s %s;", s.Target, s.Op, s.Region, s.Body)
}

// PartialReduceStmt reduces an element-wise expression along the
// dimensions that the destination region collapses (extent 1),
// producing an array — ZPL's partial reduction. Like full reductions
// and communication, it is unnormalized: it participates in ordering
// but never joins a fusible cluster.
type PartialReduceStmt struct {
	LHS    string
	Dest   *sema.Region // destination region; collapsed dims have extent 1
	Op     ReduceOp
	Region *sema.Region // source iteration region
	Body   Expr
	Pos    source.Pos
}

func (s *PartialReduceStmt) String() string {
	return fmt.Sprintf("%s %s := %s %s %s;", s.Dest, s.LHS, s.Op, s.Region, s.Body)
}

// CommStmt is a compiler-generated communication primitive: it makes
// the halo elements of Array needed by a read at Offset available
// (ghost-cell exchange with the neighbor in that direction). Comm
// statements are unnormalized and are never fusion or contraction
// candidates (§2.1).
type CommStmt struct {
	Array  string
	Off    Offset
	Region *sema.Region // region of the consuming statement
	// Phase distinguishes the two halves of a pipelined exchange.
	Phase CommPhase
	// MsgID pairs a send with its receive; it is always positive.
	MsgID int
	// Pos is the source position of the consuming statement.
	Pos source.Pos
}

// CommPhase identifies the half of a pipelined exchange.
type CommPhase int

// Communication phases. The values are explicit: the envelope codec
// and the VM trace hashes record these integers.
const (
	CommSend CommPhase = 1 // send half, posted after the producer
	CommRecv CommPhase = 2 // receive half, right before the consumer
)

func (p CommPhase) String() string {
	switch p {
	case CommSend:
		return "send"
	case CommRecv:
		return "recv"
	}
	return "comm"
}

func (s *CommStmt) String() string {
	return fmt.Sprintf("%s %s@%s over %s;", s.Phase, s.Array, s.Off, s.Region)
}

// WritelnStmt prints scalar values and string literals.
type WritelnStmt struct {
	Args []WriteArg
	Pos  source.Pos
}

// WriteArg is one writeln argument: a literal string or a scalar expr.
type WriteArg struct {
	Str  string
	Expr Expr // nil when Str is used
}

func (s *WritelnStmt) String() string {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		if a.Expr != nil {
			parts[i] = a.Expr.String()
		} else {
			parts[i] = fmt.Sprintf("%q", a.Str)
		}
	}
	return "writeln(" + strings.Join(parts, ", ") + ");"
}

// ProcEffects summarizes a procedure's transitive side effects on
// global state, computed by lowering over the (acyclic) call graph.
// With a summary attached, dependence analysis treats a call as
// touching exactly these names instead of as a full ordering barrier.
type ProcEffects struct {
	ArraysRead     []string
	ArraysWritten  []string
	ScalarsRead    []string
	ScalarsWritten []string
	IO             bool // callee performs writeln (stays a barrier)
}

// CallStmt invokes a procedure for effect; the optional Target
// receives the scalar result (function call in scalar assignment).
type CallStmt struct {
	Target string // "" when no result is stored
	Proc   string
	Args   []Expr // scalar expressions
	// Effects is the callee's transitive side-effect summary; nil
	// means unknown (the call acts as a full barrier).
	Effects *ProcEffects
	Pos     source.Pos
}

func (s *CallStmt) String() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.String()
	}
	call := s.Proc + "(" + strings.Join(args, ", ") + ");"
	if s.Target != "" {
		return s.Target + " := " + call
	}
	return call
}

// ReturnStmt returns from the enclosing procedure.
type ReturnStmt struct {
	Value Expr // nil for plain return
	Pos   source.Pos
}

func (s *ReturnStmt) String() string {
	if s.Value == nil {
		return "return;"
	}
	return "return " + s.Value.String() + ";"
}

// Sweep is a statement that iterates a region: an ArrayStmt, a
// ReduceStmt or a PartialReduceStmt. It is AIR's one definition of what
// a statement touches, the counterpart of lir.Refs: every pass but the
// verifier (package check, on purpose) reads a statement's arrays and
// regions through it.
type Sweep interface {
	Stmt
	// Over is the region the statement iterates.
	Over() *sema.Region
	// Elem is the element-wise expression evaluated at each point of
	// Over: the right-hand side, or the reduced body.
	Elem() Expr
	// Reads returns every array reference of Elem in Refs' visit
	// order; each reads Over shifted by its offset.
	Reads() []Ref
	// Writes returns the array the statement writes and the region it
	// writes at offset zero: LHS over Region, LHS over Dest for a
	// partial reduction, and ("", nil) for a full reduction, whose
	// result is a scalar.
	Writes() (string, *sema.Region)
}

func (s *ArrayStmt) Over() *sema.Region         { return s.Region }
func (s *ReduceStmt) Over() *sema.Region        { return s.Region }
func (s *PartialReduceStmt) Over() *sema.Region { return s.Region }

func (s *ArrayStmt) Elem() Expr         { return s.RHS }
func (s *ReduceStmt) Elem() Expr        { return s.Body }
func (s *PartialReduceStmt) Elem() Expr { return s.Body }

func (s *ArrayStmt) Reads() []Ref         { return Refs(s.RHS) }
func (s *ReduceStmt) Reads() []Ref        { return Refs(s.Body) }
func (s *PartialReduceStmt) Reads() []Ref { return Refs(s.Body) }

func (s *ArrayStmt) Writes() (string, *sema.Region)         { return s.LHS, s.Region }
func (s *ReduceStmt) Writes() (string, *sema.Region)        { return "", nil }
func (s *PartialReduceStmt) Writes() (string, *sema.Region) { return s.LHS, s.Dest }

func (*ArrayStmt) stmtNode()         {}
func (*ScalarStmt) stmtNode()        {}
func (*ReduceStmt) stmtNode()        {}
func (*PartialReduceStmt) stmtNode() {}
func (*CommStmt) stmtNode()          {}
func (*WritelnStmt) stmtNode()       {}
func (*CallStmt) stmtNode()          {}
func (*ReturnStmt) stmtNode()        {}

// PosOf returns the source position recorded on a statement by
// lowering, or the zero Pos for statements that never had one.
func PosOf(s Stmt) source.Pos {
	switch x := s.(type) {
	case *ArrayStmt:
		return x.Pos
	case *ScalarStmt:
		return x.Pos
	case *ReduceStmt:
		return x.Pos
	case *PartialReduceStmt:
		return x.Pos
	case *CommStmt:
		return x.Pos
	case *WritelnStmt:
		return x.Pos
	case *CallStmt:
		return x.Pos
	case *ReturnStmt:
		return x.Pos
	}
	return source.Pos{}
}

// ---------------------------------------------------------------------------
// Control structure

// Node is either a straight-line Block or a control construct.
type Node interface {
	nodeKind()
}

// Block is a maximal straight-line sequence of statements — the unit
// over which the ASDG is built and fusion runs.
type Block struct {
	ID    int
	Stmts []Stmt
}

// Loop is a scalar counted loop.
type Loop struct {
	Var  string
	Lo   Expr
	Hi   Expr
	Down bool
	Body []Node
}

// While is a scalar while loop.
type While struct {
	Cond Expr
	Body []Node
}

// If is scalar control flow.
type If struct {
	Cond Expr
	Then []Node
	Else []Node
}

func (*Block) nodeKind() {}
func (*Loop) nodeKind()  {}
func (*While) nodeKind() {}
func (*If) nodeKind()    {}

// ---------------------------------------------------------------------------
// Program

// ArrayInfo describes one array variable after lowering.
type ArrayInfo struct {
	Name     string // mangled: globals bare, locals "proc.name", temps "_tN"
	Elem     ast.TypeKind
	Declared *sema.Region // declared (logical) region
	Alloc    *sema.Region // allocation bounds including halo
	Temp     bool         // compiler-introduced temporary
	// Escapes marks an array whose final value is observable after the
	// program ends — a programmatic caller (the lazy runtime) holds a
	// handle to it and will read the storage back. Liveness must treat
	// such an array as live at exit, so it is never a contraction
	// candidate regardless of how its in-program references look.
	// Source-text programs never set it.
	Escapes bool
	// Contracted is set by the fusion phase when the array was
	// eliminated; scalarization then never allocates it.
	Contracted bool
}

// Halo returns the per-dimension lo/hi halo widths implied by the
// difference between Alloc and Declared.
func (a *ArrayInfo) Halo() (lo, hi []int) {
	lo = make([]int, a.Declared.Rank())
	hi = make([]int, a.Declared.Rank())
	for i := range lo {
		lo[i] = a.Declared.Lo[i] - a.Alloc.Lo[i]
		hi[i] = a.Alloc.Hi[i] - a.Declared.Hi[i]
	}
	return lo, hi
}

// ScalarInfo describes one scalar variable after lowering.
type ScalarInfo struct {
	Name   string
	Type   ast.TypeKind
	Config bool
	Init   float64 // config value when Config
}

// Proc is a lowered procedure.
type Proc struct {
	Name      string
	Params    []string // mangled scalar names in order
	HasResult bool
	Body      []Node
}

// Program is a fully lowered ZA program.
type Program struct {
	Name    string
	Arrays  map[string]*ArrayInfo
	Scalars map[string]*ScalarInfo
	Procs   map[string]*Proc
	Main    *Proc

	// NumStmts is the number of ArrayStmt IDs handed out; IDs are
	// dense in [0, NumStmts).
	NumStmts int
}

// Array returns the ArrayInfo for name, or nil.
func (p *Program) Array(name string) *ArrayInfo { return p.Arrays[name] }

// Blocks returns every Block in the procedure body tree, in program order.
func Blocks(nodes []Node) []*Block {
	var out []*Block
	var walk func(ns []Node)
	walk = func(ns []Node) {
		for _, n := range ns {
			switch x := n.(type) {
			case *Block:
				out = append(out, x)
			case *Loop:
				walk(x.Body)
			case *While:
				walk(x.Body)
			case *If:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	walk(nodes)
	return out
}

// AllBlocks returns every block in every procedure of the program.
func (p *Program) AllBlocks() []*Block {
	var out []*Block
	for _, pr := range sortedProcs(p) {
		out = append(out, Blocks(pr.Body)...)
	}
	return out
}

// CoverAllocs widens each array's allocation to cover every reference
// in the program: writes cover the statement region; a read at offset d
// over region S covers S shifted by d. The difference between the
// declared and allocated bounds is the array's halo. Each widening
// installs a new Alloc region and never mutates the old one, which may
// be shared (with Declared, or with another array).
func (p *Program) CoverAllocs() {
	cover := func(name string, reg *sema.Region, off Offset) {
		if a := p.Arrays[name]; a != nil && reg.Rank() == a.Declared.Rank() {
			a.cover(reg, off)
		}
	}
	for _, blk := range p.AllBlocks() {
		for _, s := range blk.Stmts {
			sw, ok := s.(Sweep)
			if !ok {
				continue
			}
			if w, reg := sw.Writes(); w != "" {
				cover(w, reg, nil)
			}
			for _, r := range sw.Reads() {
				cover(r.Array, sw.Over(), r.Off)
			}
		}
	}
}

// cover widens a's allocation to hold reg shifted by off (nil: no shift).
func (a *ArrayInfo) cover(reg *sema.Region, off Offset) {
	lo := make([]int, reg.Rank())
	hi := make([]int, reg.Rank())
	copy(lo, a.Alloc.Lo)
	copy(hi, a.Alloc.Hi)
	for i := range lo {
		d := 0
		if off != nil {
			d = off[i]
		}
		lo[i] = min(lo[i], reg.Lo[i]+d)
		hi[i] = max(hi[i], reg.Hi[i]+d)
	}
	a.Alloc = &sema.Region{Name: a.Alloc.Name, Lo: lo, Hi: hi}
}

func sortedProcs(p *Program) []*Proc {
	// main first, then others by name for determinism.
	var out []*Proc
	if p.Main != nil {
		out = append(out, p.Main)
	}
	names := make([]string, 0, len(p.Procs))
	for n := range p.Procs {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		if pr := p.Procs[n]; pr != p.Main {
			out = append(out, pr)
		}
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
