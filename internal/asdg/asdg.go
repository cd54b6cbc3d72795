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

	out, in [][]int          // vertex -> indices of the edges it starts, ends; ascending
	on      map[string][]int // variable -> indices of the edges with an item on it, ascending
	arrays  [][]string       // vertex -> arrays it references, with repeats
	refs    map[string][]int // array -> vertices referencing it, ascending
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
		out:    make([][]int, len(stmts)),
		in:     make([][]int, len(stmts)),
		on:     map[string][]int{},
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
		g.out[e.From] = append(g.out[e.From], i)
		g.in[e.To] = append(g.in[e.To], i)
		for _, it := range e.Items {
			if on := g.on[it.Var]; len(on) == 0 || on[len(on)-1] != i {
				g.on[it.Var] = append(on, i)
			}
		}
	}
	return g
}

// N returns the number of statements (vertices).
func (g *Graph) N() int { return len(g.Stmts) }

// Out returns the indices into Edges of the edges leaving vertex v,
// ascending. The slice is the graph's own.
func (g *Graph) Out(v int) []int { return g.out[v] }

// In returns the indices into Edges of the edges entering vertex v,
// ascending. The slice is the graph's own.
func (g *Graph) In(v int) []int { return g.in[v] }

// On returns the indices into Edges of the edges whose label mentions
// variable x, ascending. The slice is the graph's own.
func (g *Graph) On(x string) []int { return g.on[x] }

// ArrayStmt returns vertex v as an ArrayStmt, or nil.
func (g *Graph) ArrayStmt(v int) *air.ArrayStmt {
	s, _ := g.Stmts[v].(*air.ArrayStmt)
	return s
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
