package core

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/dep"
	"repro/internal/remark"
	"repro/internal/source"
)

// diagnosis is a rendered verdict: when !OK, Test names the failed
// legality test and Edge (or Pos) points at the concrete witness. When
// CONTRACTIBLE? is blocked by exactly one dependence item attributable
// to a single read offset, Fixit carries an actionable suggestion.
type diagnosis struct {
	OK     bool
	Test   string
	Reason string
	Detail string
	Fixit  string
	Pos    source.Pos
	Edge   *remark.Edge
}

// witnessEdge renders a dependence item as a remark witness.
func witnessEdge(g *asdg.Graph, e *dep.Edge, it dep.Item) *remark.Edge {
	vec := "-"
	if it.Vector {
		vec = it.U.String()
	}
	return &remark.Edge{
		From:    e.From,
		To:      e.To,
		FromPos: air.PosOf(g.Stmts[e.From]),
		ToPos:   air.PosOf(g.Stmts[e.To]),
		Var:     it.Var,
		Vector:  vec,
		Dep:     it.Kind.String(),
	}
}

// verdict is the compact outcome of a legality check — which test
// failed and the indices of its witness, nothing rendered. The greedy
// loops run thousands of checks and keep only ok(); explainBlock hands
// the few verdicts it records to the renderers below. One check, one
// renderer per predicate: a remark cannot contradict the decision it
// explains, and the decision does not pay for the explanation.
type verdict struct {
	test       string // remark.Test* of the first violated test; "" when none
	v, ref     int    // segment, fusible, conformable: the offending vertex and the one it is compared with
	edge, item int    // dependence tests: the witness is G.Edges[edge].Items[item]
	offending  int    // contraction: how many dependence items block it
}

func (d verdict) ok() bool { return d.test == "" }

// checkFusion is the FUSION-PARTITION? predicate: merging the clusters
// in set must yield a valid fusion partition (Definition 5, plus the
// segment constraint). Inter-cluster cycles are not checked — the
// caller has closed set under GROW (the paper makes the same
// observation). The verdict names the first violated test and the
// first offending statement or dependence item in program order.
//
// Exact translates of a region are admitted as well as equal regions
// (equal extents, shifted bounds): realigned compiler temporaries
// produce such clusters, and scalarization guards the shifted
// statements inside the union loop nest.
func checkFusion(p *Partition, set []int) verdict {
	g := p.G
	p.in.reset(len(p.rep))
	n := 0
	for _, c := range set {
		if p.in.add(c) {
			n++
		}
	}
	if n < 2 {
		return verdict{}
	}

	// FavorComm segment constraint: fusion may not cross a
	// communication primitive (it would shrink the overlap window).
	if g.Seg != nil {
		first := -1
		for v, r := range p.rep {
			switch {
			case !p.in.has(r):
			case first < 0:
				first = v
			case g.Seg[v] != g.Seg[first]:
				return verdict{test: remark.TestSegment, v: v, ref: first}
			}
		}
	}

	// Conditions (i) + fusibility: every member statement is fusible
	// and operates under one region (or an exact translate of it).
	first := -1
	for v, r := range p.rep {
		switch {
		case !p.in.has(r):
		case !g.IsFusible(v):
			return verdict{test: remark.TestFusible, v: v}
		case first < 0:
			first = v
		case !Translates(g.StmtRegion(first), g.StmtRegion(v)):
			return verdict{test: remark.TestConformable, v: v, ref: first}
		}
	}

	// Conditions (ii) and (iv) over the would-be intra-cluster deps.
	vecs := p.vecs[:0]
	nonNull := verdict{}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if !p.in.has(p.rep[e.From]) || !p.in.has(p.rep[e.To]) {
			continue
		}
		for ii := range e.Items {
			it := &e.Items[ii]
			switch {
			case !it.Vector:
				return verdict{test: remark.TestOrderingOnly, edge: ei, item: ii}
			case it.U.IsZero():
			case it.Kind == dep.Flow:
				return verdict{test: remark.TestNullFlow, edge: ei, item: ii}
			case it.Kind == dep.Anti && p.NoCarriedAnti:
				return verdict{test: remark.TestCarriedAnti, edge: ei, item: ii}
			case nonNull.ok():
				nonNull = verdict{test: remark.TestLoopStructure, edge: ei, item: ii}
			}
			vecs = append(vecs, it.U)
		}
	}
	p.vecs = vecs
	// An all-null vector set always admits the identity structure; the
	// first non-null vector is the witness when none exists.
	if !nonNull.ok() {
		if _, found := FindLoopStructure(g.StmtRegion(first).Rank(), vecs); !found {
			return nonNull
		}
	}
	return verdict{}
}

// checkContraction is the CONTRACTIBLE? predicate (Definition 6):
// after fusing the clusters in set, array x is contractible iff every
// dependence due to x runs between vertices of the fused cluster and
// carries a null unconstrained distance vector. The verdict names the
// first offending item and counts them all. The caller must also have
// established that x's live range permits elimination (package
// liveness).
func checkContraction(p *Partition, x string, set []int) verdict {
	p.in.reset(len(p.rep))
	for _, c := range set {
		p.in.add(c)
	}
	var d verdict
	for ei := range p.G.Edges {
		e := &p.G.Edges[ei]
		confined := p.in.has(p.rep[e.From]) && p.in.has(p.rep[e.To])
		for ii := range e.Items {
			it := &e.Items[ii]
			test := ""
			switch {
			case it.Var != x:
				continue
			case !confined:
				test = remark.TestConfined
			case !it.Vector || !it.U.IsZero():
				test = remark.TestNullVector
			default:
				continue
			}
			if d.offending == 0 {
				d.test, d.edge, d.item = test, ei, ii
			}
			d.offending++
		}
	}
	return d
}

// diagnoseFusion renders checkFusion's verdict on the merge of the
// clusters in cs as remark evidence.
func diagnoseFusion(p *Partition, cs map[int]bool) diagnosis {
	g := p.G
	d := checkFusion(p, p.clustersOf(cs))
	pos := func(v int) source.Pos { return air.PosOf(g.Stmts[v]) }
	switch d.test {
	case "":
		return diagnosis{OK: true}
	case remark.TestSegment:
		return diagnosis{
			Test:   d.test,
			Reason: "fusion would cross a communication segment boundary",
			Detail: fmt.Sprintf("v%d is in segment %d, v%d in segment %d", d.ref, g.Seg[d.ref], d.v, g.Seg[d.v]),
			Pos:    pos(d.v),
		}
	case remark.TestFusible:
		return diagnosis{
			Test:   d.test,
			Reason: fmt.Sprintf("statement v%d is not a fusible (normalized) statement", d.v),
			Detail: "cycle closure (GROW) may have pulled the statement into the merge set",
			Pos:    pos(d.v),
		}
	case remark.TestConformable:
		return diagnosis{
			Test:   d.test,
			Reason: "member statements iterate over non-conformable regions",
			Detail: fmt.Sprintf("v%d runs over %s, v%d over %s", d.ref, g.StmtRegion(d.ref), d.v, g.StmtRegion(d.v)),
			Pos:    pos(d.v),
		}
	}
	e := &g.Edges[d.edge]
	out := diagnosis{Test: d.test, Edge: witnessEdge(g, e, e.Items[d.item]), Pos: pos(e.From)}
	switch d.test {
	case remark.TestOrderingOnly:
		out.Reason = "an intra-cluster dependence carries no distance vector"
	case remark.TestNullFlow:
		out.Reason = "fusing would make a non-null flow dependence intra-cluster (contraction-unsafe ordering)"
	case remark.TestCarriedAnti:
		out.Reason = "the fused cluster would carry a non-null anti dependence (emulated compiler restriction)"
	case remark.TestLoopStructure:
		vectors, _, _ := p.IntraVectors(cs)
		out.Reason = "FIND-LOOP-STRUCTURE: no loop structure vector preserves every intra-cluster dependence"
		out.Detail = fmt.Sprintf("intra-cluster distance vectors %v", vectors)
	}
	return out
}

// diagnoseContraction renders checkContraction's verdict as remark
// evidence. When a single non-null flow dependence is the only
// blocker, it adds a fix-it note naming the read offset the user would
// have to align.
func diagnoseContraction(p *Partition, x string, cs map[int]bool) diagnosis {
	d := checkContraction(p, x, p.clustersOf(cs))
	if d.ok() {
		return diagnosis{OK: true}
	}
	e := &p.G.Edges[d.edge]
	it := e.Items[d.item]
	out := diagnosis{
		Test: d.test,
		Edge: witnessEdge(p.G, e, it),
		Pos:  air.PosOf(p.G.Stmts[e.To]),
	}
	switch {
	case d.test == remark.TestConfined:
		out.Reason = fmt.Sprintf("a dependence on %s escapes the fused cluster (Def. 6 condition (i))", x)
	case !it.Vector:
		out.Reason = fmt.Sprintf("a dependence on %s carries no distance vector (Def. 6 condition (ii))", x)
	default:
		out.Reason = fmt.Sprintf("a dependence on %s has non-null unconstrained distance vector %s (Def. 6 condition (ii))", x, it.U)
	}
	if d.offending == 1 && d.test == remark.TestNullVector && it.Kind == dep.Flow && it.Vector {
		// u = src_off − dst_off and the producing write is at offset
		// zero, so the offending read sits at −u.
		at := make(air.Offset, len(it.U))
		for i, u := range it.U {
			at[i] = -u
		}
		out.Fixit = fmt.Sprintf("%s would contract but for the single read at offset %s (%s); aligning that reference with its producer (offset %s) enables contraction",
			x, at, out.Edge.ToPos, air.Zero(len(at)))
	}
	return out
}
