package asdg

import (
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/dep"
	"repro/internal/sema"
)

func reg2(n int) *sema.Region {
	return &sema.Region{Lo: []int{1, 1}, Hi: []int{n, n}}
}

func arrStmt(r *sema.Region, lhs string, reads ...air.Ref) *air.ArrayStmt {
	var rhs air.Expr
	for _, rd := range reads {
		ref := &air.RefExpr{Ref: rd}
		if rhs == nil {
			rhs = ref
		} else {
			rhs = &air.BinExpr{Op: air.OpAdd, X: rhs, Y: ref}
		}
	}
	if rhs == nil {
		rhs = &air.ConstExpr{Val: 1}
	}
	return &air.ArrayStmt{Region: r, LHS: lhs, RHS: rhs}
}

func ref(a string, vs ...int) air.Ref { return air.Ref{Array: a, Off: air.Offset(vs)} }

func fig2Graph() *Graph {
	r := reg2(4)
	return Build([]air.Stmt{
		arrStmt(r, "A", ref("B", -1, 0)),
		arrStmt(r, "C", ref("A", 0, -1)),
		arrStmt(r, "B", ref("A", -1, 1)),
	})
}

func TestGraphStructure(t *testing.T) {
	g := fig2Graph()
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	if e := g.Edge(0, 1); e == nil {
		t.Error("missing edge 0->1")
	}
	if e := g.Edge(0, 2); e == nil {
		t.Error("missing edge 0->2")
	}
	if e := g.Edge(1, 2); e != nil {
		t.Errorf("spurious edge 1->2: %v", e)
	}
	if len(g.Succ(0)) != 2 {
		t.Errorf("succ(0) = %v", g.Succ(0))
	}
	if len(g.Pred(2)) != 1 {
		t.Errorf("pred(2) = %v", g.Pred(2))
	}
}

func TestAcyclicByConstruction(t *testing.T) {
	g := fig2Graph()
	for _, e := range g.Edges {
		if e.From >= e.To {
			t.Errorf("edge %d->%d not forward", e.From, e.To)
		}
	}
}

func TestReachability(t *testing.T) {
	g := fig2Graph()
	down := g.ReachableFrom([]int{0})
	if !down[1] || !down[2] {
		t.Errorf("ReachableFrom(0) = %v", down)
	}
	up := g.Reaching([]int{2})
	if !up[0] {
		t.Errorf("Reaching(2) = %v", up)
	}
	if up[1] {
		t.Errorf("1 should not reach 2: %v", up)
	}
}

func TestIsFusible(t *testing.T) {
	r := reg2(4)
	g := Build([]air.Stmt{
		arrStmt(r, "A", ref("B", 0, 0)),
		&air.ReduceStmt{Target: "s", Op: air.ReduceSum, Region: r,
			Body: &air.RefExpr{Ref: ref("A", 0, 0)}},
		&air.ScalarStmt{LHS: "x", RHS: &air.ConstExpr{Val: 1}},
		&air.CommStmt{Array: "A", Off: air.Offset{0, 1}, Region: r, Phase: air.CommRecv, MsgID: 1},
	})
	want := []bool{true, true, false, false}
	for v, w := range want {
		if g.IsFusible(v) != w {
			t.Errorf("IsFusible(%d) = %v, want %v", v, g.IsFusible(v), w)
		}
	}
	if g.StmtRegion(0) == nil || g.StmtRegion(1) == nil {
		t.Error("fusible statements must have regions")
	}
	if g.StmtRegion(2) != nil {
		t.Error("scalar statement has a region")
	}
}

func TestReferences(t *testing.T) {
	g := fig2Graph()
	if !g.References(0, "A") || !g.References(0, "B") {
		t.Error("statement 0 references A (write) and B (read)")
	}
	if g.References(1, "B") {
		t.Error("statement 1 does not reference B")
	}
}

func TestDependencesOn(t *testing.T) {
	g := fig2Graph()
	edges := g.DependencesOn("A")
	if len(edges) != 2 {
		t.Errorf("deps on A: %d edges, want 2", len(edges))
	}
	edges = g.DependencesOn("B")
	if len(edges) != 1 {
		t.Errorf("deps on B: %d edges, want 1", len(edges))
	}
}

func TestString(t *testing.T) {
	s := fig2Graph().String()
	for _, want := range []string{"v0", "v1", "v2", "flow", "anti"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestSelfEdges: a statement reading its own target (A := f(A@d)) is
// unnormalized in ZA, but the graph must still never record an edge
// from a vertex to itself — the items belong to loop-carried analysis,
// not the ASDG.
func TestSelfEdges(t *testing.T) {
	r := reg2(4)
	g := Build([]air.Stmt{
		arrStmt(r, "A", ref("A", -1, 0)),
		arrStmt(r, "B", ref("A", 0, -1)),
	})
	if g.N() != 2 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if e := g.Edge(v, v); e != nil {
			t.Errorf("self edge on v%d: %v", v, e)
		}
		for _, s := range g.Succ(v) {
			if s == v {
				t.Errorf("v%d lists itself as successor", v)
			}
		}
	}
	// The genuine cross-statement flow dependence must survive.
	if e := g.Edge(0, 1); e == nil {
		t.Error("flow edge 0->1 missing")
	}
}

// TestParallelFlowAndAnti: when statement j both reads i's target and
// writes an array i reads, the single edge i->j must carry both the
// flow and the anti item.
func TestParallelFlowAndAnti(t *testing.T) {
	r := reg2(4)
	g := Build([]air.Stmt{
		arrStmt(r, "A", ref("B", -1, 0)),
		arrStmt(r, "B", ref("A", 0, -1)),
	})
	e := g.Edge(0, 1)
	if e == nil {
		t.Fatal("edge 0->1 missing")
	}
	var flows, antis int
	for _, it := range e.Items {
		switch {
		case it.Var == "A" && it.Kind == dep.Flow:
			flows++
		case it.Var == "B" && it.Kind == dep.Anti:
			antis++
		}
	}
	if flows != 1 || antis != 1 {
		t.Errorf("edge 0->1 items = %v; want one A flow and one B anti", e.Items)
	}
	if got := len(g.DependencesOn("A")); got != 1 {
		t.Errorf("DependencesOn(A) = %d edges, want 1", got)
	}
	if got := len(g.DependencesOn("B")); got != 1 {
		t.Errorf("DependencesOn(B) = %d edges, want 1", got)
	}
	if got := g.DependencesOn("C"); got != nil {
		t.Errorf("DependencesOn(C) = %v, want nil", got)
	}
}

// TestEmptyGraph: the degenerate block.
func TestEmptyGraph(t *testing.T) {
	g := Build(nil)
	if g.N() != 0 {
		t.Fatalf("N = %d", g.N())
	}
	if e := g.Edge(0, 0); e != nil {
		t.Errorf("Edge on empty graph = %v", e)
	}
	if deps := g.DependencesOn("A"); len(deps) != 0 {
		t.Errorf("DependencesOn on empty graph = %v", deps)
	}
	if vs := g.Vertices(); len(vs) != 0 {
		t.Errorf("Vertices on empty graph = %v", vs)
	}
}
