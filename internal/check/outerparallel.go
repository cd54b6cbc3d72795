package check

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/source"
)

// PassOuterParallel audits the nests an engine splits across goroutines.
const PassOuterParallel = "outer-parallel"

// OuterParallel re-proves that every nest either engine splits — a
// resident worker or a whole-program VM machine running it in chunks of
// its outermost loop's rows (absint.Result.Splits, the one per-nest
// decision both read) — may run them in any order. The rule decides
// from an offset scan of the nest's references; this pass decides from the
// plan's ASDG instead (Definition 4, Theorem 1): each dependence between
// two statements of the nest's cluster, constrained by the nest's loop
// structure, must have a zero first element — the outermost loop
// carries none — and must be an array dependence, since an ordering
// dependence (a statement reading a reduction target) holds between
// rows too. It also requires that no statement read the array it stores
// at a row offset, that every reduction be a max or a min (the only
// folds whose result does not depend on how the rows are grouped), and
// that every access be ProvenSafe, so a helper goroutine cannot trap.
func OuterParallel(plan *core.Plan, lp *lir.Program, bounds *absint.Result) []Report {
	return outerParallel(plan, lp, bounds, func(n *lir.Nest) bool { return bounds.Splits(lp, n) })
}

// outerParallel is OuterParallel over any decision; the seeded-fault
// test forces one.
func outerParallel(plan *core.Plan, lp *lir.Program, bounds *absint.Result, split func(*lir.Nest) bool) []Report {
	rp := &reporter{pass: PassOuterParallel}
	if plan == nil || lp == nil {
		return nil
	}
	// The nest scalarize made of a cluster has the cluster's statements
	// in order, each with its target, position and region.
	type cluster struct {
		bp      *core.BlockPlan
		members []int
	}
	clusters := map[string][]cluster{}
	for _, bp := range plan.Blocks {
		if bp.Part == nil {
			continue
		}
		for _, c := range bp.Part.TopoClusters() {
			members := bp.Part.Members(c)
			var sig []string
			for _, v := range members {
				switch x := bp.Graph.Stmts[v].(type) {
				case *air.ArrayStmt:
					sig = append(sig, stmtKey(x.LHS, x.Pos, x.Region))
				case *air.ReduceStmt:
					sig = append(sig, stmtKey(x.Target, x.Pos, x.Region))
				}
			}
			k := strings.Join(sig, ";")
			clusters[k] = append(clusters[k], cluster{bp, members})
		}
	}
	procs := make([]string, 0, len(lp.Procs))
	for name := range lp.Procs {
		procs = append(procs, name)
	}
	sort.Strings(procs)
	for _, name := range procs {
		for _, n := range lir.Nests(lp.Procs[name].Body) {
			if !split(n) {
				continue
			}
			var sig []string
			for _, s := range n.Body {
				r, target := s.Guard, s.LHS
				if r == nil {
					r = n.Region
				}
				if s.IsReduce {
					target = s.Target
				}
				sig = append(sig, stmtKey(target, s.Pos, r))
			}
			cs := clusters[strings.Join(sig, ";")]
			if len(cs) == 0 {
				rp.errorf(nestPos(n), "threaded nest over %s is no cluster of the plan", n.Region)
			}
			for _, c := range cs {
				auditSplit(rp, n, c.bp.Graph.Stmts, c.bp.Graph.Edges, c.members)
			}
			auditSites(rp, lp, n, bounds)
		}
	}
	return rp.reports
}

func stmtKey(target string, pos source.Pos, r *sema.Region) string {
	return fmt.Sprintf("%s@%s%s", target, pos, r)
}

func nestPos(n *lir.Nest) source.Pos {
	for _, s := range n.Body {
		if s.Pos.IsValid() {
			return s.Pos
		}
	}
	return source.Pos{}
}

// auditSplit checks the dependences among one cluster's statements under
// the loop structure of the nest made of it.
func auditSplit(rp *reporter, n *lir.Nest, stmts []air.Stmt, edges []dep.Edge, members []int) {
	order := n.Order
	if order == nil {
		order = core.Identity(n.Region.Rank())
	}
	dim := max(order[0], -order[0]) - 1
	in := map[int]bool{}
	for _, v := range members {
		in[v] = true
	}
	for _, e := range edges {
		if !in[e.From] || !in[e.To] {
			continue
		}
		pos := air.PosOf(stmts[e.To])
		for _, it := range e.Items {
			if !it.Vector {
				rp.errorf(pos, "threaded nest over %s: %s from v%d to v%d orders whole statements, not rows",
					n.Region, it, e.From, e.To)
				continue
			}
			if d := dep.Constrain(it.U, order); d[0] != 0 {
				rp.errorf(pos, "threaded nest over %s splits loop %s, which carries %s from v%d to v%d (constrained distance %s)",
					n.Region, order, it, e.From, e.To, d)
			}
		}
	}
	for _, v := range members {
		switch x := stmts[v].(type) {
		case *air.ArrayStmt:
			for _, r := range x.Reads() {
				if r.Array == x.LHS && r.Off[dim] != 0 {
					rp.errorf(x.Pos, "threaded nest over %s: %s reads the array it stores at %s, another row",
						n.Region, x.LHS, r.Off)
				}
			}
		case *air.ReduceStmt:
			if x.Op != air.ReduceMax && x.Op != air.ReduceMin {
				rp.errorf(x.Pos, "threaded nest over %s: a %s reduction into %s rounds by the grouping of rows",
					n.Region, x.Op, x.Target)
			}
		}
	}
}

// auditSites requires every access of a threaded nest to be ProvenSafe.
func auditSites(rp *reporter, lp *lir.Program, n *lir.Nest, bounds *absint.Result) {
	proven := func(s *absint.Site) bool { return s != nil && s.Verdict == absint.ProvenSafe }
	if bounds == nil {
		rp.errorf(nestPos(n), "threaded nest over %s without the bounds prover's verdicts", n.Region)
		return
	}
	for i, pl := range n.Preloads {
		if !proven(bounds.PreloadSite(n, i)) {
			rp.errorf(pl.Pos, "threaded nest over %s: preload of %s is not ProvenSafe", n.Region, pl.Array)
		}
	}
	for _, s := range n.Body {
		if !s.IsReduce && !s.Contracted && !proven(bounds.Store(s)) {
			rp.errorf(s.Pos, "threaded nest over %s: the store into %s is not ProvenSafe", n.Region, s.LHS)
		}
		air.Walk(s.RHS, func(e air.Expr) {
			x, ok := e.(*air.RefExpr)
			if !ok {
				return
			}
			if a := lp.Source.Arrays[x.Ref.Array]; (a == nil || !a.Contracted) && !proven(bounds.Read(x)) {
				rp.errorf(s.Pos, "threaded nest over %s: the read of %s@%s is not ProvenSafe", n.Region, x.Ref.Array, x.Ref.Off)
			}
		})
	}
}
