package core

import (
	"errors"
	"fmt"
	"slices"

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

// proof is what a cluster has proved about the dependence items among
// its members: the first item, in G.Edges order, of each kind
// checkFusion tests, and the distinct non-null vectors, the only ones
// FIND-LOOP-STRUCTURE's answer depends on (direction ignores zeros;
// prune keeps them, but they constrain nothing). Its vectors are never
// appended to once it is built.
type proof struct {
	first [orderingOnly + 1]at // the first non-null item of each dep.Kind, then the first without a vector
	vecs  []air.Offset
}

const orderingOnly = int(dep.Output) + 1

// at names the item G.Edges[e].Items[i] as (e+1)<<32 | i, so that items
// compare in G.Edges order and 0 names none.
type at int64

func (a at) edge() int        { return int(a>>32) - 1 }
func (a at) item() int        { return int(a & (1<<32 - 1)) }
func (a at) before(b at) bool { return a != 0 && (b == 0 || a < b) }

// mark records a as the first item of kind k unless s has an earlier one.
func (s *proof) mark(k int, a at) {
	if a.before(s.first[k]) {
		s.first[k] = a
	}
}

// edge records the items of e, which is G.Edges[ei].
func (s *proof) edge(e *dep.Edge, ei int) {
	for ii := range e.Items {
		it, a := &e.Items[ii], at(ei+1)<<32|at(ii)
		switch {
		case !it.Vector:
			s.mark(orderingOnly, a)
		case !it.U.IsZero():
			s.mark(int(it.Kind), a)
			s.add(it.U)
		}
	}
}

// join adds what o proves to s.
func (s *proof) join(o *proof) {
	for k, a := range o.first {
		s.mark(k, a)
	}
	for _, u := range o.vecs {
		s.add(u)
	}
}

// add records the non-null vector u unless s holds it already.
func (s *proof) add(u air.Offset) {
	if !slices.ContainsFunc(s.vecs, u.Equal) {
		s.vecs = append(s.vecs, u)
	}
}

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
// statements inside the union loop nest. It is a variable, as is
// checkContraction, so that a test can watch it.
var checkFusion = fusionPartition

func fusionPartition(p *Partition, set []int) verdict {
	g := p.G
	n, m, big := p.stamp(set)
	if n < 2 {
		return verdict{}
	}

	// FavorComm segment constraint: fusion may not cross a
	// communication primitive (it would shrink the overlap window).
	// Conditions (i) + fusibility: every member statement is fusible
	// and operates under one region (or an exact translate of it). By
	// the Partition invariant the first offending statement is the
	// smallest offending representative.
	reg, seg, v := g.StmtRegion(m), -1, -1
	for _, c := range set {
		if g.Seg != nil && g.Seg[c] != g.Seg[m] && (seg < 0 || c < seg) {
			seg = c
		}
		if reg != nil && (v < 0 || c < v) && (!g.IsFusible(c) || !Translates(reg, g.StmtRegion(c))) {
			v = c
		}
	}
	switch {
	case seg >= 0:
		return verdict{test: remark.TestSegment, v: seg, ref: m}
	case reg == nil:
		return verdict{test: remark.TestFusible, v: m}
	case v < 0:
	case !g.IsFusible(v):
		return verdict{test: remark.TestFusible, v: v}
	default:
		return verdict{test: remark.TestConformable, v: v, ref: m}
	}

	// Conditions (ii) and (iv) over the would-be intra-cluster deps:
	// the first ordering-only item, non-null flow or (under
	// NoCarriedAnti) non-null anti is the witness.
	s := p.joined(set, big)
	var w at
	test := ""
	for k, t := range [...]string{dep.Flow: remark.TestNullFlow, dep.Anti: remark.TestCarriedAnti, orderingOnly: remark.TestOrderingOnly} {
		if t != "" && s.first[k].before(w) && (k != int(dep.Anti) || p.NoCarriedAnti) {
			w, test = s.first[k], t
		}
	}
	if w != 0 {
		return verdict{test: test, edge: w.edge(), item: w.item()}
	}
	// An all-null vector set always admits the identity structure; the
	// first non-null vector is the witness when none exists.
	for _, a := range s.first[:orderingOnly] {
		if a.before(w) {
			w = a
		}
	}
	if w != 0 {
		if _, found := FindLoopStructure(reg.Rank(), s.vecs); !found {
			return verdict{test: remark.TestLoopStructure, edge: w.edge(), item: w.item()}
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
var checkContraction = contractible

func contractible(p *Partition, x string, set []int) verdict {
	p.in.reset(len(p.rep))
	for _, c := range set {
		p.in.add(c)
	}
	var d verdict
	for _, ei := range p.G.On(x) {
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
// clusters in set as remark evidence.
func diagnoseFusion(p *Partition, set []int) diagnosis {
	g := p.G
	d := checkFusion(p, set)
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
		detail := "cycle closure (GROW) may have pulled the statement into the merge set"
		if p.named {
			detail = fmt.Sprintf("v%d (line %d) is not an array statement or a full reduction: %s", d.v, pos(d.v).Line, g.Stmts[d.v])
		}
		return diagnosis{
			Test:   d.test,
			Reason: fmt.Sprintf("statement v%d is not a fusible (normalized) statement", d.v),
			Detail: detail,
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
		out.Reason = "FIND-LOOP-STRUCTURE: no loop structure vector preserves every intra-cluster dependence"
		out.Detail = fmt.Sprintf("intra-cluster distance vectors %v", internalVectors(p, set))
	}
	return out
}

// internalVectors lists the vector of every item on an edge between
// two statements of the clusters in set, zeros included, in G.Edges
// order.
func internalVectors(p *Partition, set []int) (vecs []air.Offset) {
	p.stamp(set)
	var edges []int
	for _, c := range set {
		for _, v := range p.members[c] {
			edges = append(edges, p.G.Out(v)...)
		}
	}
	slices.Sort(edges)
	for _, ei := range edges {
		if e := &p.G.Edges[ei]; p.in.has(p.rep[e.To]) {
			for _, it := range e.Items {
				if it.Vector {
					vecs = append(vecs, it.U)
				}
			}
		}
	}
	return vecs
}

// err renders a failed diagnosis of subject as an error, its parts in
// the order remark.Remark.String prints them.
func (d diagnosis) err(subject string) error {
	msg := fmt.Sprintf("%s [%s]: %s", subject, d.Test, d.Reason)
	if d.Edge != nil {
		msg += fmt.Sprintf(" (blocking edge %s)", d.Edge)
	}
	if d.Detail != "" {
		msg += "; " + d.Detail
	}
	return errors.New(msg)
}

// diagnoseContraction renders checkContraction's verdict as remark
// evidence. When a single non-null flow dependence is the only
// blocker, it adds a fix-it note naming the read offset the user would
// have to align.
func diagnoseContraction(p *Partition, x string, set []int) diagnosis {
	d := checkContraction(p, x, set)
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
