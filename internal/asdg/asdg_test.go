package asdg

import (
	"fmt"
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

// edge returns the edge from→to, found through Out, or nil.
func edge(g *Graph, from, to int) *dep.Edge {
	for _, i := range g.Out(from) {
		if g.Edges[i].To == to {
			return &g.Edges[i]
		}
	}
	return nil
}

// checkIndex holds Out, In and On to the edge list: each lists exactly
// the edges it names, ascending.
func checkIndex(t *testing.T, g *Graph) {
	t.Helper()
	out, in, on := make([][]int, g.N()), make([][]int, g.N()), map[string][]int{}
	for i, e := range g.Edges {
		out[e.From] = append(out[e.From], i)
		in[e.To] = append(in[e.To], i)
		for _, it := range e.Items {
			if l := on[it.Var]; len(l) == 0 || l[len(l)-1] != i {
				on[it.Var] = append(l, i)
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if fmt.Sprint(g.Out(v)) != fmt.Sprint(out[v]) || fmt.Sprint(g.In(v)) != fmt.Sprint(in[v]) {
			t.Errorf("v%d: Out %v In %v, want %v %v", v, g.Out(v), g.In(v), out[v], in[v])
		}
	}
	for x, want := range on {
		if got := g.On(x); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("On(%s) = %v, want %v", x, got, want)
		}
	}
}

func TestGraphStructure(t *testing.T) {
	g := fig2Graph()
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	if e := edge(g, 0, 1); e == nil {
		t.Error("missing edge 0->1")
	}
	if e := edge(g, 0, 2); e == nil {
		t.Error("missing edge 0->2")
	}
	if e := edge(g, 1, 2); e != nil {
		t.Errorf("spurious edge 1->2: %v", e)
	}
	if len(g.Out(0)) != 2 {
		t.Errorf("Out(0) = %v", g.Out(0))
	}
	if len(g.In(2)) != 1 {
		t.Errorf("In(2) = %v", g.In(2))
	}
	checkIndex(t, g)
}

func TestAcyclicByConstruction(t *testing.T) {
	g := fig2Graph()
	for _, e := range g.Edges {
		if e.From >= e.To {
			t.Errorf("edge %d->%d not forward", e.From, e.To)
		}
	}
}

// TestReachability walks the graph through Out and In: the paths the
// partitioner's condensation is built from.
func TestReachability(t *testing.T) {
	g := fig2Graph()
	reach := func(v int, adj func(int) []int, end func(*dep.Edge) int) map[int]bool {
		seen := map[int]bool{}
		for stack := []int{v}; len(stack) > 0; {
			v, stack = stack[len(stack)-1], stack[:len(stack)-1]
			for _, i := range adj(v) {
				if w := end(&g.Edges[i]); !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return seen
	}
	down := reach(0, g.Out, func(e *dep.Edge) int { return e.To })
	if !down[1] || !down[2] {
		t.Errorf("reachable from 0 = %v", down)
	}
	up := reach(2, g.In, func(e *dep.Edge) int { return e.From })
	if !up[0] {
		t.Errorf("reaching 2 = %v", up)
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
	if got := fmt.Sprint(g.Referencing("A"), g.Referencing("B")); got != "[0 1 2] [0 2]" {
		t.Errorf("Referencing(A), Referencing(B) = %s, want [0 1 2] [0 2]", got)
	}
}

// TestDependencesOn: On lists the edges whose label mentions a
// variable.
func TestDependencesOn(t *testing.T) {
	g := fig2Graph()
	if edges := g.On("A"); len(edges) != 2 {
		t.Errorf("deps on A: %d edges, want 2", len(edges))
	}
	if edges := g.On("B"); len(edges) != 1 {
		t.Errorf("deps on B: %d edges, want 1", len(edges))
	}
	checkIndex(t, g)
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
		if e := edge(g, v, v); e != nil {
			t.Errorf("self edge on v%d: %v", v, e)
		}
	}
	// The genuine cross-statement flow dependence must survive.
	if e := edge(g, 0, 1); e == nil {
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
	e := edge(g, 0, 1)
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
	if got := len(g.On("A")); got != 1 {
		t.Errorf("On(A) = %d edges, want 1", got)
	}
	if got := len(g.On("B")); got != 1 {
		t.Errorf("On(B) = %d edges, want 1", got)
	}
	if got := g.On("C"); got != nil {
		t.Errorf("On(C) = %v, want nil", got)
	}
}

// TestEmptyGraph: the degenerate block.
func TestEmptyGraph(t *testing.T) {
	g := Build(nil)
	if g.N() != 0 {
		t.Fatalf("N = %d", g.N())
	}
	if len(g.Edges) != 0 {
		t.Errorf("edges on empty graph = %v", g.Edges)
	}
	if deps := g.On("A"); len(deps) != 0 {
		t.Errorf("On on empty graph = %v", deps)
	}
}
