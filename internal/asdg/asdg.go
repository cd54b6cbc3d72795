// Package asdg builds the Array Statement Dependence Graph of
// Definition 3: a labeled acyclic digraph whose vertices are the
// statements of one straight-line block and whose edges carry
// (variable, unconstrained distance vector, kind) dependence labels.
//
// Because edges always point from an earlier statement to a later one
// in program order, the graph is acyclic by construction, exactly as
// the paper observes for single basic blocks.
package asdg

import (
	"fmt"
	"strings"

	"repro/internal/air"
	"repro/internal/dep"
)

// Graph is an ASDG over the statements of one block.
type Graph struct {
	Stmts []air.Stmt
	Edges []dep.Edge

	// Seg, when non-nil, labels each statement with its communication
	// segment; the FavorComm strategy forbids fusion across segments.
	Seg []int

	succ   [][]int
	pred   [][]int
	idx    map[[2]int]int   // (from,to) -> index into Edges
	arrays [][]string       // vertex -> arrays it references, with repeats
	refs   map[string][]int // array -> vertices referencing it, ascending
}

// Build computes dependences among stmts and assembles the graph.
func Build(stmts []air.Stmt) *Graph {
	return BuildWith(stmts, dep.Compute)
}

// BuildWith assembles the graph from a caller-supplied dependence
// computation (used by ablations, e.g. dep.ComputeNaive).
func BuildWith(stmts []air.Stmt, computeDeps func([]air.Stmt) []dep.Edge) *Graph {
	g := &Graph{
		Stmts:  stmts,
		Edges:  computeDeps(stmts),
		succ:   make([][]int, len(stmts)),
		pred:   make([][]int, len(stmts)),
		idx:    map[[2]int]int{},
		arrays: make([][]string, len(stmts)),
		refs:   map[string][]int{},
	}
	for v, s := range stmts {
		g.arrays[v] = referenced(s)
		for _, x := range g.arrays[v] {
			if at := g.refs[x]; len(at) == 0 || at[len(at)-1] != v {
				g.refs[x] = append(at, v)
			}
		}
	}
	for i, e := range g.Edges {
		g.succ[e.From] = append(g.succ[e.From], e.To)
		g.pred[e.To] = append(g.pred[e.To], e.From)
		g.idx[[2]int{e.From, e.To}] = i
	}
	return g
}

// N returns the number of statements (vertices).
func (g *Graph) N() int { return len(g.Stmts) }

// Succ returns the successors of vertex v.
func (g *Graph) Succ(v int) []int { return g.succ[v] }

// Pred returns the predecessors of vertex v.
func (g *Graph) Pred(v int) []int { return g.pred[v] }

// Edge returns the edge from→to, or nil when absent.
func (g *Graph) Edge(from, to int) *dep.Edge {
	if i, ok := g.idx[[2]int{from, to}]; ok {
		return &g.Edges[i]
	}
	return nil
}

// IsNormalized reports whether vertex v is a normalized array
// statement (the only fusion candidates).
func (g *Graph) IsNormalized(v int) bool {
	_, ok := g.Stmts[v].(*air.ArrayStmt)
	return ok
}

// ArrayStmt returns vertex v as an ArrayStmt, or nil.
func (g *Graph) ArrayStmt(v int) *air.ArrayStmt {
	s, _ := g.Stmts[v].(*air.ArrayStmt)
	return s
}

// DependencesOn returns every edge whose label mentions variable x.
func (g *Graph) DependencesOn(x string) []dep.Edge {
	var out []dep.Edge
	for _, e := range g.Edges {
		for _, it := range e.Items {
			if it.Var == x {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Vertices returns the vertex list in program (topological) order.
func (g *Graph) Vertices() []int {
	vs := make([]int, g.N())
	for i := range vs {
		vs[i] = i
	}
	return vs
}

// ReachableFrom returns the set of vertices reachable from any vertex
// in from (excluding unreachable members of from itself).
func (g *Graph) ReachableFrom(from []int) map[int]bool {
	seen := map[int]bool{}
	stack := append([]int(nil), from...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.succ[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Reaching returns the set of vertices that can reach any vertex in to.
func (g *Graph) Reaching(to []int) map[int]bool {
	seen := map[int]bool{}
	stack := append([]int(nil), to...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.pred[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// String renders the graph for debugging and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	for v, s := range g.Stmts {
		fmt.Fprintf(&b, "v%d: %s\n", v, s)
	}
	for _, e := range g.Edges {
		items := make([]string, len(e.Items))
		for i, it := range e.Items {
			items[i] = it.String()
		}
		fmt.Fprintf(&b, "v%d -> v%d: %s\n", e.From, e.To, strings.Join(items, " "))
	}
	return b.String()
}
