package asdg

import (
	"repro/internal/air"
	"repro/internal/sema"
)

// IsFusible reports whether vertex v may join a fusible cluster.
// Normalized array statements are the fusion candidates of the paper;
// we additionally allow full reductions to join clusters as consumers:
// a reduction's local accumulation loop iterates element-wise over its
// region exactly like an array statement, and fusing it is what lets
// benchmarks such as NAS EP eliminate every array. The reduction's
// global combine (communication) stays outside the cluster.
func (g *Graph) IsFusible(v int) bool {
	switch g.Stmts[v].(type) {
	case *air.ArrayStmt, *air.ReduceStmt:
		return true
	}
	return false
}

// StmtRegion returns the iteration region of a fusible vertex, or nil
// for unnormalized statements.
func (g *Graph) StmtRegion(v int) *sema.Region {
	if g.IsFusible(v) {
		return g.Stmts[v].(air.Sweep).Over()
	}
	return nil
}

// Referencing returns, in program order, the vertices that reference
// array x (as a read, write, reduction input, or communication
// subject). The slice is the graph's own.
func (g *Graph) Referencing(x string) []int { return g.refs[x] }

// Arrays returns the arrays vertex v references, once per reference:
// the written array, then each read (for a communication statement,
// its subject). The slice is the graph's own.
func (g *Graph) Arrays(v int) []string { return g.arrays[v] }

// referenced lists the arrays a statement references, with repeats:
// a sweep's written array, then each read; a communication statement's
// subject.
func referenced(s air.Stmt) []string {
	var out []string
	switch s := s.(type) {
	case *air.PartialReduceStmt:
		// Lists none: it never joins a cluster, and dependence edges
		// alone order it.
	case air.Sweep:
		if w, _ := s.Writes(); w != "" {
			out = append(out, w)
		}
		for _, r := range s.Reads() {
			out = append(out, r.Array)
		}
	case *air.CommStmt:
		out = append(out, s.Array)
	}
	return out
}
