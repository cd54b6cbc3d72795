package absint

import (
	"repro/internal/air"
	"repro/internal/lir"
)

// SplitWork is the least work (lir.Work, element-statements) a nest
// must do for an engine to split it across goroutines (Splits). Below
// it, starting or waking a helper goroutine costs more than the rows it
// takes over (DESIGN.md §31).
const SplitWork = 3 << 16

// Splits reports whether nest n of p may run in contiguous chunks of its
// outermost loop's rows, one per goroutine. It is the one per-nest
// decision of both engines that split: gogen.EmitWorker emits such a
// nest as a function over a range of rows, the VM compiles it to read
// its rows from the machine, and check.OuterParallel re-proves each
// split from the plan's dependence graph. A nil result never splits. A
// nest splits when it
//
//   - does at least SplitWork element-statements over its region;
//   - has every access ProvenSafe under r, so a chunk never traps
//     outside the engine's recover;
//   - carries no dependence on its outermost loop (Nest.Order[0]): every
//     reference to an array the nest stores has offset 0 in that loop's
//     dimension, and every read of a contracted array follows a store of
//     it, earlier in the body, whose guard covers the read's, so no
//     register holds a value from an earlier row (a preload is loaded
//     afresh every iteration);
//   - reduces only with max and min, each target in one statement and
//     read by none: folding the chunks' accumulators in row order is the
//     sequential fold bit for bit, which a sum's or a product's rounding
//     would not be.
func (r *Result) Splits(p *lir.Program, n *lir.Nest) bool {
	if w, err := lir.Work(n, n.Region); r == nil || len(n.Body) == 0 || err != nil || w < SplitWork {
		return false
	}
	outer := 0
	if len(n.Order) > 0 {
		outer = max(n.Order[0], -n.Order[0]) - 1
	}
	proven := func(s *Site) bool {
		return s != nil && s.Verdict == ProvenSafe && s.FaultShift == 0
	}
	stored, targets := map[string]bool{}, map[string]bool{}
	for _, s := range n.Body {
		switch {
		case s.IsReduce:
			if s.Op != air.ReduceMax && s.Op != air.ReduceMin || targets[s.Target] {
				return false
			}
			targets[s.Target] = true
		case !s.Contracted:
			if !proven(r.Store(s)) {
				return false
			}
			stored[s.LHS] = true
		}
	}
	for i, pl := range n.Preloads {
		if !proven(r.PreloadSite(n, i)) || stored[pl.Array] && pl.Off[outer] != 0 {
			return false
		}
	}
	ok := true
	for i, s := range n.Body {
		air.Walk(s.RHS, func(e air.Expr) {
			switch x := e.(type) {
			case *air.ScalarExpr:
				ok = ok && !targets[x.Name]
			case *air.RefExpr:
				if a := p.Source.Arrays[x.Ref.Array]; a != nil && a.Contracted {
					ok = ok && storedBefore(n, i, x.Ref.Array)
				} else {
					ok = ok && proven(r.Read(x)) && (!stored[x.Ref.Array] || x.Ref.Off[outer] == 0)
				}
			}
		})
	}
	return ok
}

// storedBefore reports whether a statement before n.Body[i] stores
// contracted array x at every point where n.Body[i] runs.
func storedBefore(n *lir.Nest, i int, x string) bool {
	r := n.Body[i].Guard
	for _, w := range n.Body[:i] {
		if !w.Contracted || w.LHS != x {
			continue
		}
		if w.Guard == nil {
			return true
		}
		if r == nil {
			continue
		}
		in := true
		for k := range r.Lo {
			in = in && w.Guard.Lo[k] <= r.Lo[k] && r.Hi[k] <= w.Guard.Hi[k]
		}
		if in {
			return true
		}
	}
	return false
}
