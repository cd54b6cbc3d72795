package core

import (
	"repro/internal/air"
	"repro/internal/sema"
)

// RealignTemps resolves the alignment trade-off exposed by Fig. 5
// fragment (8). Normalization always emits a compiler temporary
// aligned with the written array:
//
//	[R]   _t := A@d + T1@d + T2@d;
//	[R]   A  := _t;
//
// Under this alignment _t is contractible but the flow dependences
// into T1 and T2 have distance −d, so they are not. Shifting the
// temporary to the alignment of the reads,
//
//	[R+d] _t := A + T1 + T2;
//	[R]   A  := _t@d;
//
// makes T1 and T2 contractible at the cost of _t. The paper's engine
// "properly weighs this tradeoff"; we realize that by realigning a
// def–use temporary pair whenever the combined reference weight of the
// candidate arrays it unlocks exceeds the weight of the temporary
// itself. Fragments (4) and (5) — where the uniformly-offset read is
// the written array itself — keep the default alignment, so the
// temporary still contracts there.
func RealignTemps(prog *air.Program, b *air.Block, candidates []string) {
	cand := map[string]bool{}
	for _, c := range candidates {
		cand[c] = true
	}
	w := stmtWeights(b.Stmts)

	for i := 0; i+1 < len(b.Stmts); i++ {
		def, ok := b.Stmts[i].(*air.ArrayStmt)
		if !ok {
			continue
		}
		use, ok := b.Stmts[i+1].(*air.ArrayStmt)
		if !ok {
			continue
		}
		info := prog.Arrays[def.LHS]
		if info == nil || !info.Temp {
			continue
		}
		// The pair must be exactly the normalization shape:
		// use copies the temp at offset zero over the same region.
		ref, ok := use.RHS.(*air.RefExpr)
		if !ok || ref.Ref.Array != def.LHS || !ref.Ref.Off.IsZero() || !use.Region.Equal(def.Region) {
			continue
		}
		reads := def.Reads()
		if len(reads) == 0 {
			continue
		}
		d := reads[0].Off
		if d.IsZero() {
			continue
		}
		uniform := true
		for _, r := range reads {
			if !r.Off.Equal(d) {
				uniform = false
				break
			}
		}
		if !uniform {
			continue
		}
		// Weigh the trade: arrays other than the written one that the
		// shift would align to offset zero, versus the temporary.
		shiftBenefit := 0
		for _, r := range reads {
			if r.Array != use.LHS && r.Array != def.LHS && cand[r.Array] {
				shiftBenefit += w[r.Array]
			}
		}
		stayBenefit := w[def.LHS]
		if shiftBenefit <= stayBenefit {
			continue
		}
		// Apply the shift.
		shifted := ShiftRegion(def.Region, d)
		def.Region = shifted
		info.Declared = shifted
		info.Alloc = shifted
		zero := air.Zero(len(d))
		rewriteOffsets(def.RHS, zero)
		ref.Ref.Off = d.Clone()
	}
}

// stmtWeights is weights read off a block's statements: realignment
// runs before the block's graph is built, and a weight needs no
// dependence. A shift moves a region without resizing it, so the
// weights hold for the whole pre-pass.
func stmtWeights(stmts []air.Stmt) map[string]int {
	w := map[string]int{}
	for _, s := range stmts {
		switch s := s.(type) {
		case *air.ArrayStmt:
			n := s.Region.Size()
			w[s.LHS] += n
			for _, r := range s.Reads() {
				w[r.Array] += n
			}
		case *air.ReduceStmt:
			for _, r := range air.Refs(s.Body) {
				w[r.Array] += s.Region.Size()
			}
		}
	}
	return w
}

// Translates reports whether two regions are exact translates of each
// other: equal rank and extents, possibly shifted bounds. Statements
// over translated regions may share a fusible cluster; the paper's
// condition (i) is the special case of a null shift.
func Translates(a, b *sema.Region) bool {
	if a.Rank() != b.Rank() {
		return false
	}
	for i := 0; i < a.Rank(); i++ {
		if a.Extent(i) != b.Extent(i) {
			return false
		}
	}
	return true
}

// UnionRegion returns the bounding box of the given regions — the
// iteration space of a fused cluster containing translated members.
func UnionRegion(regions []*sema.Region) *sema.Region {
	if len(regions) == 0 {
		return nil
	}
	lo := append([]int(nil), regions[0].Lo...)
	hi := append([]int(nil), regions[0].Hi...)
	for _, r := range regions[1:] {
		for i := range lo {
			if r.Lo[i] < lo[i] {
				lo[i] = r.Lo[i]
			}
			if r.Hi[i] > hi[i] {
				hi[i] = r.Hi[i]
			}
		}
	}
	return &sema.Region{Lo: lo, Hi: hi}
}

// ShiftRegion returns reg translated by off.
func ShiftRegion(reg *sema.Region, off air.Offset) *sema.Region {
	lo := make([]int, reg.Rank())
	hi := make([]int, reg.Rank())
	for i := range lo {
		lo[i] = reg.Lo[i] + off[i]
		hi[i] = reg.Hi[i] + off[i]
	}
	return &sema.Region{Lo: lo, Hi: hi}
}

// rewriteOffsets sets every array reference's offset in e to off.
func rewriteOffsets(e air.Expr, off air.Offset) {
	air.Walk(e, func(x air.Expr) {
		if r, ok := x.(*air.RefExpr); ok {
			r.Ref.Off = off.Clone()
		}
	})
}
