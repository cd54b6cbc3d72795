package check

import (
	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/source"
)

// PassBounds re-proves the bounds prover's claims.
const PassBounds = "bounds"

// Bounds cross-checks the bounds prover's access-site verdicts against
// an independent re-derivation. The prover (internal/absint) is itself
// a containment check — region ∩ guard + constant offset, as Intervals,
// inside the allocation — so this pass is the same idea written a second
// time, over plain ints and sharing no code with it. The redundancy is
// deliberate: it is what catches a wrong interval (-provefault), however
// it got there. This pass recomputes the hull of every statically
// indexed access directly from the region structure and demands that
//
//   - the prover produced a site for every access this walker finds;
//   - the prover's evidence interval contains the re-derived hull on
//     every dimension (a deliberately perturbed interval — the
//     -provefault self-test — fails exactly here);
//   - every ProvenSafe verdict is re-proved: the re-derived hull fits
//     the allocation;
//   - no site without static index context claims ProvenSafe;
//   - every ProvenUnsafe verdict is surfaced as a positioned error.
//
// Any report is a prover bug (or an injected fault), never a user
// error — the same contract as every other pass in this package.
func Bounds(lp *lir.Program, r *absint.Result) []Report {
	rp := &reporter{pass: PassBounds}
	if r == nil {
		return rp.reports
	}
	w := &boundsWalker{p: lp, r: r, rp: rp}
	for name, pr := range lp.Procs {
		w.proc = name
		w.nodes(pr.Body)
	}
	for _, s := range r.Sites {
		if s.Verdict == absint.ProvenUnsafe {
			rp.errorf(s.Pos, "proven out-of-bounds %s of %s: %s", rw(s.Write), s.Array, s.Reason())
		}
	}
	return rp.reports
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// span is one dimension of a re-derived index hull, in absolute
// coordinates. empty marks a dimension with no index points.
type span struct {
	lo, hi int
	empty  bool
}

type boundsWalker struct {
	p    *lir.Program
	r    *absint.Result
	rp   *reporter
	proc string
}

func (w *boundsWalker) nodes(ns []lir.Node) {
	for _, n := range ns {
		switch x := n.(type) {
		case *lir.Nest:
			w.nest(x)
		case *lir.PartialReduce:
			w.partialReduce(x)
		case *lir.ScalarAssign:
			w.dynamicReads(x.RHS, x.Pos)
		case *lir.Loop:
			w.dynamicReads(x.Lo, source.Pos{})
			w.dynamicReads(x.Hi, source.Pos{})
			w.nodes(x.Body)
		case *lir.While:
			w.dynamicReads(x.Cond, source.Pos{})
			w.nodes(x.Body)
		case *lir.If:
			w.dynamicReads(x.Cond, source.Pos{})
			w.nodes(x.Then)
			w.nodes(x.Else)
		case *lir.Call:
			for _, a := range x.Args {
				w.dynamicReads(a, x.Pos)
			}
		case *lir.Return:
			if x.Value != nil {
				w.dynamicReads(x.Value, x.Pos)
			}
		case *lir.Writeln:
			for _, a := range x.Args {
				if a.Expr != nil {
					w.dynamicReads(a.Expr, x.Pos)
				}
			}
		}
	}
}

func (w *boundsWalker) nest(x *lir.Nest) {
	full := spansOf(x.Region)
	for i, pl := range x.Preloads {
		w.checkSite(w.r.PreloadSite(x, i), pl.Array, pl.Off, false, pl.Pos, full)
	}
	for _, s := range x.Body {
		eff := full
		if s.Guard != nil {
			eff = intersect(full, spansOf(s.Guard))
		}
		w.reads(s.RHS, s.Pos, eff)
		if !s.IsReduce && !s.Contracted {
			w.checkSite(w.r.Store(s), s.LHS, air.Zero(len(full)), true, s.Pos, eff)
		}
	}
}

func (w *boundsWalker) partialReduce(x *lir.PartialReduce) {
	rank := x.Region.Rank()
	reg, dest := spansOf(x.Region), spansOf(x.Dest)
	proj := make([]span, rank)
	for d := 0; d < rank; d++ {
		if x.Dest.Extent(d) == 1 && x.Region.Extent(d) != 1 {
			proj[d] = span{lo: x.Dest.Lo[d], hi: x.Dest.Lo[d]}
		} else {
			proj[d] = reg[d]
		}
	}
	write := make([]span, rank)
	for d := 0; d < rank; d++ {
		write[d] = hullJoin(dest[d], proj[d])
	}
	zero := air.Zero(rank)
	w.checkSite(w.r.ReduceStore(x), x.LHS, zero, true, x.Pos, write)
	w.checkSite(w.r.ReduceLoad(x), x.LHS, zero, false, x.Pos, proj)
	w.reads(x.Body, x.Pos, reg)
}

// reads walks an expression inside a nest context, checking each array
// reference against the recorded site.
func (w *boundsWalker) reads(e air.Expr, pos source.Pos, eff []span) {
	walkRefs(e, func(ref *air.RefExpr) {
		info := w.p.Source.Arrays[ref.Ref.Array]
		if info == nil || info.Contracted {
			return
		}
		w.checkSite(w.r.Read(ref), ref.Ref.Array, ref.Ref.Off, false, pos, eff)
	})
}

// dynamicReads walks an expression with no static index context: the
// prover must have recorded the site and must not claim safety for it.
func (w *boundsWalker) dynamicReads(e air.Expr, pos source.Pos) {
	walkRefs(e, func(ref *air.RefExpr) {
		info := w.p.Source.Arrays[ref.Ref.Array]
		if info == nil || info.Contracted {
			return
		}
		s := w.r.Read(ref)
		if s == nil {
			w.rp.errorf(pos, "%s: no site recorded for context-free read of %s", w.proc, ref.Ref.Array)
			return
		}
		if s.Verdict == absint.ProvenSafe && s.Index == nil {
			w.rp.errorf(s.Pos, "%s: read of %s outside a loop nest claims proven-safe without evidence", w.proc, s.Array)
		}
	})
}

// checkSite validates one site's evidence and verdict against the
// independently re-derived hull.
func (w *boundsWalker) checkSite(s *absint.Site, array string, off air.Offset, write bool, pos source.Pos, eff []span) {
	info := w.p.Source.Arrays[array]
	if info == nil || info.Contracted {
		return
	}
	if s == nil {
		w.rp.errorf(pos, "%s: no site recorded for %s of %s", w.proc, rw(write), array)
		return
	}
	rank := info.Alloc.Rank()
	if len(eff) < rank || len(off) < rank {
		return // rank mismatch is the prover's Unknown; nothing to re-derive
	}
	if s.Index == nil {
		// The prover declined a static context this walker found: a
		// precision loss, legal only if it did not claim safety... but a
		// nil-evidence site is Unknown by construction, so just note
		// nothing.
		return
	}
	for d := 0; d < rank; d++ {
		truth := shiftSpan(eff[d], off[d])
		if truth.empty {
			continue
		}
		ev := s.Index[d]
		if !ev.Contains(absint.Range(int64(truth.lo), int64(truth.hi))) {
			w.rp.errorf(s.Pos, "%s: evidence for %s of %s dim %d is %s but the access covers [%d,%d]: wrong interval",
				w.proc, rw(write), array, d+1, ev, truth.lo, truth.hi)
			return
		}
	}
	if s.Verdict == absint.ProvenSafe {
		for d := 0; d < rank; d++ {
			truth := shiftSpan(eff[d], off[d])
			if truth.empty {
				continue
			}
			if truth.lo < info.Alloc.Lo[d] || truth.hi > info.Alloc.Hi[d] {
				w.rp.errorf(s.Pos, "%s: proven-safe %s of %s dim %d covers [%d,%d] outside allocation [%d,%d]",
					w.proc, rw(write), array, d+1, truth.lo, truth.hi, info.Alloc.Lo[d], info.Alloc.Hi[d])
				return
			}
		}
	}
}

func walkRefs(e air.Expr, f func(*air.RefExpr)) {
	switch x := e.(type) {
	case *air.RefExpr:
		f(x)
	case *air.BinExpr:
		walkRefs(x.X, f)
		walkRefs(x.Y, f)
	case *air.UnExpr:
		walkRefs(x.X, f)
	case *air.CallExpr:
		for _, a := range x.Args {
			walkRefs(a, f)
		}
	}
}

func spansOf(r *sema.Region) []span {
	out := make([]span, r.Rank())
	for d := range out {
		out[d] = span{lo: r.Lo[d], hi: r.Hi[d], empty: r.Lo[d] > r.Hi[d]}
	}
	return out
}

func intersect(a, b []span) []span {
	out := make([]span, len(a))
	for d := range a {
		lo, hi := a[d].lo, a[d].hi
		if b[d].lo > lo {
			lo = b[d].lo
		}
		if b[d].hi < hi {
			hi = b[d].hi
		}
		out[d] = span{lo: lo, hi: hi, empty: a[d].empty || b[d].empty || lo > hi}
	}
	return out
}

func hullJoin(a, b span) span {
	switch {
	case a.empty:
		return b
	case b.empty:
		return a
	}
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

func shiftSpan(s span, off int) span {
	s.lo += off
	s.hi += off
	return s
}
