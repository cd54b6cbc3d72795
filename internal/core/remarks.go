package core

import (
	"fmt"
	"sort"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/liveness"
	"repro/internal/remark"
	"repro/internal/source"
)

// explainBlock produces the optimization remarks of bp, block blockIdx
// of the plan:
//
//   - one "fused" remark per multi-statement cluster of the final
//     partition;
//   - exactly one "not-fused" remark per edge-connected pair of
//     distinct final clusters, diagnosing the merge (with its GROW
//     cycle closure) against Definition 5;
//   - one "contracted" or "not-contracted" remark per contraction
//     candidate of the block;
//   - one liveness "not-contracted" remark per compiler temporary
//     whose live range disqualified it from candidacy.
//
// Diagnoses run against the final partition, so every negative remark
// names a test that fails right now — the remarks are auditable
// against the emitted code, not against a transient algorithm state.
// They run on a copy of it: the predicates use a partition's scratch,
// and a finished one stays read-only.
func (pl *Plan) explainBlock(blockIdx int, bp *BlockPlan) []remark.Remark {
	prog, level, g, p := pl.prog, pl.Level, bp.Graph, bp.Part.Clone()
	var out []remark.Remark

	// Fused clusters.
	for _, c := range p.TopoClusters() {
		members := p.Members(c)
		if len(members) < 2 {
			continue
		}
		detail := ""
		if ls, ok := p.LoopStructureFor(c); ok && ls != nil {
			detail = fmt.Sprintf("loop structure %s over region %s", ls, g.StmtRegion(members[0]))
		}
		out = append(out, remark.Remark{
			Kind: remark.Fused, Pass: "fusion", Block: blockIdx,
			Stmts:  members,
			Pos:    air.PosOf(g.Stmts[members[0]]),
			Detail: detail,
		})
	}

	// Unfused cluster pairs: every ASDG edge crossing two distinct
	// final clusters defines a fusible-candidate pair that was not
	// fused; diagnose each unordered pair once, in edge order.
	seen := map[[2]int]bool{}
	for ei := range g.Edges {
		e := &g.Edges[ei]
		a, c := p.ClusterOf(e.From), p.ClusterOf(e.To)
		if a == c {
			continue
		}
		key := [2]int{a, c}
		if c < a {
			key = [2]int{c, a}
		}
		if seen[key] {
			continue
		}
		seen[key] = true

		cs := map[int]bool{a: true, c: true}
		for d := range p.Grow(cs) {
			cs[d] = true
		}
		d := diagnoseFusion(p, cs)
		r := remark.Remark{
			Kind: remark.NotFused, Pass: "fusion", Block: blockIdx,
			Pair: &[2]int{key[0], key[1]},
			Pos:  air.PosOf(g.Stmts[key[0]]),
		}
		if !d.OK {
			r.Test, r.Reason, r.Detail, r.Edge = d.Test, d.Reason, d.Detail, d.Edge
			if d.Pos.IsValid() {
				r.Pos = d.Pos
			}
		} else {
			r.Test, r.Reason = unselectedFusion(level)
		}
		out = append(out, r)
	}

	// Contraction candidates.
	sorted := append([]string(nil), bp.Candidates...)
	sort.Strings(sorted)
	for _, x := range sorted {
		pos := firstWritePos(g, x)
		if pl.Contracted[x] {
			cls := p.ClustersReferencing(x)
			var members []int
			for c := range cls {
				members = append(members, p.members[c]...)
			}
			sort.Ints(members)
			out = append(out, remark.Remark{
				Kind: remark.Contracted, Pass: "contraction", Block: blockIdx,
				Array: x, Stmts: members, Pos: pos,
				Detail: fmt.Sprintf("every dependence on %s is intra-cluster with a null distance vector", x),
			})
			continue
		}
		out = append(out, explainUncontracted(prog, level, blockIdx, g, p, x, pos))
	}

	// Compiler temporaries excluded by liveness never reach the
	// candidate list; explain them from the liveness verdicts.
	for _, v := range pl.live {
		if v.Candidate || v.Block != bp.Block {
			continue
		}
		a := prog.Arrays[v.Array]
		if a == nil || !a.Temp {
			continue
		}
		r := remark.Remark{
			Kind: remark.NotContracted, Pass: "liveness", Block: blockIdx,
			Array: v.Array, Pos: v.Pos,
			Test:   remark.TestLiveRange,
			Reason: livenessReason(v),
			Detail: v.Detail,
		}
		if v.Offending == 1 && v.Reason == liveness.ReasonUncoveredRead {
			r.Fixit = fmt.Sprintf("%s would be a contraction candidate but for the single uncovered read at %s (offset %s); initializing or covering that element range with an earlier write enables contraction",
				v.Array, v.Pos, v.Off)
		}
		out = append(out, r)
	}
	return out
}

// explainUncontracted diagnoses one uncontracted candidate: level
// exclusion first (the level would not contract this array class no
// matter what), then Definition 6, then the fusion the contraction
// would require.
func explainUncontracted(prog *air.Program, level Level, blockIdx int,
	g *asdg.Graph, p *Partition, x string, pos source.Pos) remark.Remark {

	r := remark.Remark{
		Kind: remark.NotContracted, Pass: "contraction", Block: blockIdx,
		Array: x, Pos: pos,
	}
	temp := false
	if a := prog.Arrays[x]; a != nil {
		temp = a.Temp
	}
	if reason, excluded := levelExcludesContraction(level, temp); excluded {
		r.Test, r.Reason = remark.TestLevel, reason
		return r
	}

	cs := p.ClustersReferencing(x)
	if len(cs) == 0 {
		r.Test = remark.TestFusible
		r.Reason = "no fusible statement references the array (only unnormalized or communication statements do)"
		return r
	}
	for d := range p.Grow(cs) {
		cs[d] = true
	}
	if cd := diagnoseContraction(p, x, cs); !cd.OK {
		r.Test, r.Reason, r.Detail, r.Edge, r.Fixit = cd.Test, cd.Reason, cd.Detail, cd.Edge, cd.Fixit
		if cd.Pos.IsValid() {
			r.Pos = cd.Pos
		}
		return r
	}
	if fd := diagnoseFusion(p, cs); !fd.OK {
		r.Test = fd.Test
		r.Reason = "the fusion contraction requires is illegal: " + fd.Reason
		r.Detail, r.Edge = fd.Detail, fd.Edge
		if fd.Pos.IsValid() {
			r.Pos = fd.Pos
		}
		return r
	}
	if level == External {
		r.Test = remark.TestPlan
		r.Reason = "contraction is legal on the final partition but the supplied plan does not perform it"
		return r
	}
	r.Test = remark.TestHeuristic
	r.Reason = "contraction is legal on the final partition but the greedy weight-ordered pass did not select it"
	return r
}

// unselectedFusion explains a legal-but-unperformed pair merge in
// terms of the strategy level.
func unselectedFusion(level Level) (test, reason string) {
	switch level {
	case Baseline:
		return remark.TestLevel, "level baseline performs no fusion"
	case F1, C1, F2, C2:
		return remark.TestHeuristic, "fusion at " + level.String() + " serves contraction only; merging this pair enables none"
	case F3, C2F3:
		return remark.TestHeuristic, "locality fusion merges the referencers of one array collectively; no legal collective merge contains this pair"
	case C2F4:
		return remark.TestHeuristic, "greedy pairwise fusion reached its fixed point without this pair becoming legal"
	case C2F4S:
		return remark.TestHeuristic, "spatial pairwise fusion merges only statements sharing an operand array"
	case External:
		return remark.TestPlan, "the supplied plan does not select this fusion"
	}
	return remark.TestHeuristic, "the strategy did not select this fusion"
}

// levelExcludesContraction reports whether the level never contracts
// the array's class, with the explanation.
func levelExcludesContraction(level Level, temp bool) (string, bool) {
	switch {
	case level == External:
		// An external plan may contract any candidate; nothing is
		// excluded by level.
		return "", false
	case level == Baseline:
		return "level baseline performs no contraction", true
	case level == F1:
		return "f1 fuses to enable contraction but does not perform it", true
	case !temp && level == F2:
		return "f2 fuses for user-array contraction but does not perform it", true
	case !temp && !level.ContractsUsers():
		return level.String() + " contracts compiler temporaries only", true
	}
	return "", false
}

// livenessReason renders a liveness verdict reason as a sentence.
func livenessReason(v liveness.Verdict) string {
	switch v.Reason {
	case liveness.ReasonMultiBlock:
		return "the array's live range spans multiple blocks"
	case liveness.ReasonUncoveredRead:
		return "a read is not covered by an earlier write in the block (the value flows in from outside)"
	case liveness.ReasonCommunicated:
		return "the array is communicated (distributed halo state)"
	case liveness.ReasonEscapes:
		return "the array escapes: a runtime handle observes its final value"
	}
	return v.Reason
}

// firstWritePos returns the position of the first statement writing x
// in the block's graph, falling back to the first reference.
func firstWritePos(g *asdg.Graph, x string) (pos source.Pos) {
	for v := 0; v < g.N(); v++ {
		switch s := g.Stmts[v].(type) {
		case *air.ArrayStmt:
			if s.LHS == x {
				return s.Pos
			}
		case *air.PartialReduceStmt:
			if s.LHS == x {
				return s.Pos
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if g.References(v, x) {
			return air.PosOf(g.Stmts[v])
		}
	}
	return pos
}
