// Package lir defines the scalar Loop IR produced by scalarization:
// explicit loop nests over concrete bounds, with contracted arrays
// replaced by per-iteration registers. It is the program form that the
// VM executes and that the pseudo-C emitter prints.
package lir

import (
	"repro/internal/air"
	"repro/internal/dep"
	"repro/internal/sema"
	"repro/internal/source"
)

// Program is a fully scalarized program. Array and scalar metadata
// stay in the originating air.Program (Source); contracted arrays are
// those with Contracted set there — they are never allocated.
type Program struct {
	Name   string
	Source *air.Program
	Procs  map[string]*Proc
	Main   *Proc
}

// Proc is one scalarized procedure.
type Proc struct {
	Name      string
	Params    []string
	HasResult bool
	Body      []Node
}

// Node is a scalarized program node.
type Node interface {
	nodeKind()
}

// Nest is one loop nest implementing a fusible cluster. The nest
// iterates over Region in the order given by the loop structure vector
// Order (paper Definition 4): loop i runs over dimension |Order[i]|,
// increasing when positive, decreasing when negative.
type Nest struct {
	Region *sema.Region
	Order  dep.LoopStructure
	Body   []*NestStmt

	// Preloads are scalar-replacement loads (§6 related work, Carr &
	// Kennedy): array elements read several times per iteration are
	// loaded once into a register at the top of the body. Installed by
	// scalarize.ScalarReplace; empty by default.
	Preloads []Preload
}

// Preload is one scalar-replacement load: Var := Array[idx+Off].
type Preload struct {
	Var   string
	Array string
	Off   air.Offset
	// Pos is the position of the nest statement whose read the
	// preload serves.
	Pos source.Pos
}

// NestStmt is one element-wise statement inside a nest.
type NestStmt struct {
	// Guard restricts execution to the statement's own region when the
	// nest region is a strict superset (fused translates); nil when the
	// statement covers the whole nest.
	Guard *sema.Region

	// Assignment form: LHS receives RHS at the current index. When
	// Contracted is true the LHS is a per-iteration register, not
	// memory.
	LHS        string
	Contracted bool

	// Reduction form (IsReduce): RHS accumulates into the scalar
	// Target with operator Op; LHS is unused.
	IsReduce bool
	Target   string
	Op       air.ReduceOp

	RHS air.Expr

	// Pos is the source position of the originating array statement.
	Pos source.Pos
}

// ScalarAssign assigns a scalar expression.
type ScalarAssign struct {
	LHS string
	RHS air.Expr
	Pos source.Pos
}

// Loop is a dynamic scalar counted loop.
type Loop struct {
	Var  string
	Lo   air.Expr
	Hi   air.Expr
	Down bool
	Body []Node
}

// While is a scalar while loop.
type While struct {
	Cond air.Expr
	Body []Node
}

// If is scalar control flow.
type If struct {
	Cond air.Expr
	Then []Node
	Else []Node
}

// PartialReduce reduces an element-wise expression along the collapsed
// dimensions of Dest, producing an array (ZPL's partial reduction).
type PartialReduce struct {
	LHS    string
	Dest   *sema.Region
	Op     air.ReduceOp
	Region *sema.Region
	Body   air.Expr
	Pos    source.Pos
}

// Comm is a retained communication primitive, executed by the machine
// simulation (ghost-cell exchange of Array for offset Off).
type Comm struct {
	Array string
	Off   air.Offset
	Reg   *sema.Region
	Phase air.CommPhase
	MsgID int
	Pos   source.Pos
}

// Call invokes a procedure.
type Call struct {
	Target string
	Proc   string
	Args   []air.Expr
	Pos    source.Pos
}

// Return exits the enclosing procedure.
type Return struct {
	Value air.Expr
	Pos   source.Pos
}

// Writeln prints scalars and strings.
type Writeln struct {
	Args []air.WriteArg
	Pos  source.Pos
}

func (*Nest) nodeKind()          {}
func (*ScalarAssign) nodeKind()  {}
func (*PartialReduce) nodeKind() {}
func (*Loop) nodeKind()          {}
func (*While) nodeKind()         {}
func (*If) nodeKind()            {}
func (*Comm) nodeKind()          {}
func (*Call) nodeKind()          {}
func (*Return) nodeKind()        {}
func (*Writeln) nodeKind()       {}

// Walk calls visit for every node of the tree in program order,
// descending into the bodies of loops, whiles and both branches of ifs.
func Walk(nodes []Node, visit func(Node)) {
	for _, n := range nodes {
		visit(n)
		switch x := n.(type) {
		case *Loop:
			Walk(x.Body, visit)
		case *While:
			Walk(x.Body, visit)
		case *If:
			Walk(x.Then, visit)
			Walk(x.Else, visit)
		}
	}
}

// Nests returns every loop nest in the node tree, in order.
func Nests(nodes []Node) []*Nest {
	var out []*Nest
	Walk(nodes, func(n Node) {
		if x, ok := n.(*Nest); ok {
			out = append(out, x)
		}
	})
	return out
}

// Refs calls visit for every array element a sweep node — a Nest or a
// PartialReduce; no other node touches array storage — accesses: the
// array, the offset from the sweep index, and the region of indices the
// access executes over (a statement's guard, else the node's region;
// the destination slab for a partial reduction's store). Preloads are
// unguarded reads over the whole nest; stores are at the zero offset.
// References to contracted arrays are reported like any other.
//
// This is the one definition of "what storage does this sweep touch":
// a distributed run sizes its halos from it and the shard executor
// checks its local bounds against it, so the two cannot disagree.
func Refs(n Node, visit func(array string, off air.Offset, over *sema.Region)) {
	reads := func(e air.Expr, over *sema.Region) {
		air.Walk(e, func(x air.Expr) {
			if r, ok := x.(*air.RefExpr); ok {
				visit(r.Ref.Array, r.Ref.Off, over)
			}
		})
	}
	switch x := n.(type) {
	case *Nest:
		for _, pl := range x.Preloads {
			visit(pl.Array, pl.Off, x.Region)
		}
		for _, s := range x.Body {
			over := x.Region
			if s.Guard != nil {
				over = s.Guard
			}
			reads(s.RHS, over)
			if !s.IsReduce && !s.Contracted {
				visit(s.LHS, air.Zero(over.Rank()), over)
			}
		}
	case *PartialReduce:
		reads(x.Body, x.Region)
		visit(x.LHS, air.Zero(x.Dest.Rank()), x.Dest)
	}
}

// CountNests returns the number of loop nests in the program — the
// metric used when comparing fusion strategies (fewer nests = more
// fusion).
func (p *Program) CountNests() int {
	n := 0
	for _, pr := range p.Procs {
		n += len(Nests(pr.Body))
	}
	return n
}
