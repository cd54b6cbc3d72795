package check

import (
	"fmt"
	"sort"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/sema"
)

// ASDGCrossCheck re-derives every dependence of every block from
// scratch — a pairwise O(n²) computation written independently of the
// sweep in package dep — and compares the result edge-for-edge against
// the graphs the optimizer built. A missing edge means the optimizer
// under-approximated the dependences (unsound fusion may follow); a
// spurious edge means it over-approximated (optimization lost).
func ASDGCrossCheck(prog *air.Program, plan *core.Plan) []Report {
	rp := &reporter{pass: PassASDG}
	for _, bp := range plan.Blocks {
		if bp.Graph == nil {
			continue
		}
		crossCheckBlock(rp, bp)
	}
	return rp.reports
}

func crossCheckBlock(rp *reporter, bp *core.BlockPlan) {
	g := bp.Graph
	stmts := bp.Block.Stmts
	if len(g.Stmts) != len(stmts) {
		rp.errorf(blockPos(bp.Block), "block %d: graph has %d vertices for %d statements",
			bp.Block.ID, len(g.Stmts), len(stmts))
		return
	}
	for v := range stmts {
		if g.Stmts[v] != stmts[v] {
			rp.errorf(air.PosOf(stmts[v]), "block %d: graph vertex v%d is not the block's statement %d",
				bp.Block.ID, v, v)
			return
		}
	}

	got := map[[2]int][]dep.Item{}
	for _, e := range g.Edges {
		if e.From < 0 || e.To >= len(stmts) || e.From >= e.To {
			rp.errorf(blockPos(bp.Block), "block %d: malformed edge v%d -> v%d (not forward in program order)",
				bp.Block.ID, e.From, e.To)
			continue
		}
		key := [2]int{e.From, e.To}
		got[key] = append(got[key], e.Items...)
	}
	want := recomputeDeps(stmts)

	keys := map[[2]int]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	ordered := make([][2]int, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i][0] != ordered[j][0] {
			return ordered[i][0] < ordered[j][0]
		}
		return ordered[i][1] < ordered[j][1]
	})

	for _, k := range ordered {
		pos := air.PosOf(stmts[k[1]])
		if !pos.IsValid() {
			pos = air.PosOf(stmts[k[0]])
		}
		gotItems, wantItems := itemCounts(got[k]), itemCounts(want[k])
		for key, n := range wantItems {
			if gotItems[key] < n {
				rp.errorf(pos, "block %d: missing dependence v%d -> v%d %s (re-derived but absent from ASDG)",
					bp.Block.ID, k[0], k[1], key)
			}
		}
		for key, n := range gotItems {
			if wantItems[key] < n {
				rp.errorf(pos, "block %d: spurious dependence v%d -> v%d %s (in ASDG but not re-derivable)",
					bp.Block.ID, k[0], k[1], key)
			}
		}
	}
}

func itemCounts(items []dep.Item) map[string]int {
	m := map[string]int{}
	for _, it := range items {
		m[it.String()]++
	}
	return m
}

// ---------------------------------------------------------------------------
// Independent pairwise dependence recomputation.

// racc is one real array access: its offset and touched rectangle.
// Summary (whole-array) accesses of summarized calls are tracked
// separately and never carry offsets.
type racc struct {
	off    air.Offset
	lo, hi []int
}

// stmtFacts is an independently derived summary of what one statement
// touches.
type stmtFacts struct {
	reads     map[string][]racc
	writes    map[string][]racc
	sumReads  []string // whole-array ordering reads (summarized call)
	sumWrites []string // whole-array ordering writes
	flowReads []string // scalar reads, as dependence targets
	antiReads []string // scalar reads that survive the statement's own
	// writes, as anti-dependence sources
	scalWrites []string
	barrier    bool
}

func newFacts() *stmtFacts {
	return &stmtFacts{reads: map[string][]racc{}, writes: map[string][]racc{}}
}

func (f *stmtFacts) addRead(x string, reg *sema.Region, off air.Offset) {
	lo, hi := shiftedRect(reg, off)
	f.reads[x] = append(f.reads[x], racc{off: off, lo: lo, hi: hi})
}

func shiftedRect(reg *sema.Region, off air.Offset) (lo, hi []int) {
	lo = make([]int, reg.Rank())
	hi = make([]int, reg.Rank())
	for i := range lo {
		d := 0
		if off != nil {
			d = off[i]
		}
		lo[i] = reg.Lo[i] + d
		hi[i] = reg.Hi[i] + d
	}
	return lo, hi
}

// haloSlab computes the rectangle a ghost exchange writes: the slab
// strictly outside the region in every displaced dimension.
// (Re-derived from the paper's block decomposition, independently of
// dep.HaloRect.)
func haloSlab(reg *sema.Region, off air.Offset) (lo, hi []int) {
	lo = make([]int, reg.Rank())
	hi = make([]int, reg.Rank())
	for k := 0; k < reg.Rank(); k++ {
		switch {
		case off[k] > 0:
			lo[k], hi[k] = reg.Hi[k]+1, reg.Hi[k]+off[k]
		case off[k] < 0:
			lo[k], hi[k] = reg.Lo[k]+off[k], reg.Lo[k]-1
		default:
			lo[k], hi[k] = reg.Lo[k], reg.Hi[k]
		}
	}
	return lo, hi
}

func factsOf(s air.Stmt) *stmtFacts {
	f := newFacts()
	switch x := s.(type) {
	case *air.ArrayStmt:
		if x.Region == nil {
			break // flagged by the well-formedness pass
		}
		lo, hi := shiftedRect(x.Region, nil)
		f.writes[x.LHS] = append(f.writes[x.LHS], racc{off: air.Zero(x.Region.Rank()), lo: lo, hi: hi})
		for _, r := range x.Reads() {
			f.addRead(r.Array, x.Region, r.Off)
		}
		f.flowReads = air.ScalarReads(x.RHS)
		f.antiReads = f.flowReads
	case *air.ScalarStmt:
		f.flowReads = air.ScalarReads(x.RHS)
		f.scalWrites = []string{x.LHS}
		f.antiReads = without(f.flowReads, x.LHS)
	case *air.ReduceStmt:
		if x.Region == nil {
			break
		}
		for _, r := range air.Refs(x.Body) {
			f.addRead(r.Array, x.Region, r.Off)
		}
		f.flowReads = air.ScalarReads(x.Body)
		f.scalWrites = []string{x.Target}
		f.antiReads = without(f.flowReads, x.Target)
	case *air.PartialReduceStmt:
		if x.Dest == nil || x.Region == nil {
			break
		}
		lo, hi := shiftedRect(x.Dest, nil)
		f.writes[x.LHS] = append(f.writes[x.LHS], racc{off: air.Zero(x.Dest.Rank()), lo: lo, hi: hi})
		for _, r := range air.Refs(x.Body) {
			f.addRead(r.Array, x.Region, r.Off)
		}
		f.flowReads = air.ScalarReads(x.Body)
		f.antiReads = f.flowReads
	case *air.CommStmt:
		if x.Region == nil || len(x.Off) != x.Region.Rank() {
			break
		}
		msg := fmt.Sprintf("$msg%d", x.MsgID)
		if x.Phase == air.CommSend {
			f.addRead(x.Array, x.Region, air.Zero(x.Region.Rank()))
			f.scalWrites = []string{msg}
		} else {
			lo, hi := haloSlab(x.Region, x.Off)
			f.writes[x.Array] = append(f.writes[x.Array], racc{off: x.Off, lo: lo, hi: hi})
			f.flowReads = []string{msg}
			f.antiReads = f.flowReads
		}
	case *air.WritelnStmt:
		for _, a := range x.Args {
			if a.Expr != nil {
				f.flowReads = append(f.flowReads, air.ScalarReads(a.Expr)...)
			}
		}
		f.antiReads = f.flowReads
		f.barrier = true
	case *air.CallStmt:
		var own []string
		for _, a := range x.Args {
			own = append(own, air.ScalarReads(a)...)
		}
		f.flowReads = own
		if x.Target != "" {
			f.scalWrites = []string{x.Target}
		}
		if x.Effects == nil || x.Effects.IO {
			f.barrier = true
			f.antiReads = without(own, x.Target)
			break
		}
		f.sumReads = x.Effects.ArraysRead
		f.sumWrites = x.Effects.ArraysWritten
		f.flowReads = append(f.flowReads, x.Effects.ScalarsRead...)
		f.scalWrites = append(f.scalWrites, x.Effects.ScalarsWritten...)
		// Registration order: own reads, own write, summary reads,
		// summary writes. A read survives as an anti source only if no
		// later registration of the same scalar overwrote it.
		for _, s := range own {
			if s != x.Target && !member(x.Effects.ScalarsWritten, s) {
				f.antiReads = append(f.antiReads, s)
			}
		}
		for _, s := range x.Effects.ScalarsRead {
			if !member(x.Effects.ScalarsWritten, s) {
				f.antiReads = append(f.antiReads, s)
			}
		}
	case *air.ReturnStmt:
		if x.Value != nil {
			f.flowReads = air.ScalarReads(x.Value)
		}
		f.antiReads = f.flowReads
		f.barrier = true
	}
	return f
}

func member(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func without(xs []string, drop string) []string {
	var out []string
	for _, x := range xs {
		if x != drop {
			out = append(out, x)
		}
	}
	return out
}

// rectOverlap reports whether two rectangles intersect, comparing the
// common rank prefix (permissive on rank mismatch, as summarized-call
// accesses demand).
func rectOverlap(alo, ahi, blo, bhi []int) bool {
	n := len(alo)
	if len(blo) < n {
		n = len(blo)
	}
	for i := 0; i < n; i++ {
		if ahi[i] < blo[i] || bhi[i] < alo[i] {
			return false
		}
	}
	return true
}

// rectContains reports whether rectangle a fully contains b; rank
// mismatch never contains.
func rectContains(alo, ahi, blo, bhi []int) bool {
	if len(alo) != len(blo) {
		return false
	}
	for i := range alo {
		if alo[i] > blo[i] || ahi[i] < bhi[i] {
			return false
		}
	}
	return true
}

// unconstrainedVec is Definition 2, re-derived: u = src − dst.
func unconstrainedVec(src, dst air.Offset) air.Offset {
	u := make(air.Offset, len(src))
	for i := range src {
		u[i] = src[i] - dst[i]
	}
	return u
}

// recomputeDeps computes the full dependence relation of a block by
// examining every ordered statement pair. Kill-awareness matches the
// pipeline's: an access is dead at the target if any intervening
// statement's write rectangle fully contains the access's rectangle.
func recomputeDeps(stmts []air.Stmt) map[[2]int][]dep.Item {
	n := len(stmts)
	fs := make([]*stmtFacts, n)
	for i, s := range stmts {
		fs[i] = factsOf(s)
	}

	out := map[[2]int][]dep.Item{}
	add := func(i, j int, it dep.Item) {
		key := [2]int{i, j}
		for _, have := range out[key] {
			if have.Var == it.Var && have.Kind == it.Kind && have.Vector == it.Vector &&
				(!it.Vector || have.U.Equal(it.U)) {
				return
			}
		}
		out[key] = append(out[key], it)
	}

	// liveAt reports whether a real access of statement i on array x is
	// still visible at statement j (no intervening covering write).
	liveAt := func(i int, x string, a racc, j int) bool {
		for k := i + 1; k < j; k++ {
			for _, w := range fs[k].writes[x] {
				if rectContains(w.lo, w.hi, a.lo, a.hi) {
					return false
				}
			}
		}
		return true
	}
	// scalarWrittenBetween reports whether any statement in (i, j)
	// writes scalar s.
	scalarWrittenBetween := func(i, j int, s string) bool {
		for k := i + 1; k < j; k++ {
			if member(fs[k].scalWrites, s) {
				return true
			}
		}
		return false
	}
	barrierBetween := func(i, j int) bool {
		for k := i + 1; k < j; k++ {
			if fs[k].barrier {
				return true
			}
		}
		return false
	}

	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			fi, fj := fs[i], fs[j]

			// Array dependences with real targets.
			for x, rs := range fj.reads {
				for _, r := range rs {
					for _, w := range fi.writes[x] {
						if rectOverlap(w.lo, w.hi, r.lo, r.hi) && liveAt(i, x, w, j) {
							add(i, j, dep.Item{Var: x, Kind: dep.Flow, Vector: true,
								U: unconstrainedVec(w.off, r.off)})
						}
					}
					if member(fi.sumWrites, x) {
						add(i, j, dep.Item{Var: x, Kind: dep.Flow})
					}
				}
			}
			for x, ws := range fj.writes {
				for _, w := range ws {
					for _, r := range fi.reads[x] {
						if rectOverlap(r.lo, r.hi, w.lo, w.hi) && liveAt(i, x, r, j) {
							add(i, j, dep.Item{Var: x, Kind: dep.Anti, Vector: true,
								U: unconstrainedVec(r.off, w.off)})
						}
					}
					if member(fi.sumReads, x) {
						add(i, j, dep.Item{Var: x, Kind: dep.Anti})
					}
					for _, pw := range fi.writes[x] {
						if rectOverlap(pw.lo, pw.hi, w.lo, w.hi) && liveAt(i, x, pw, j) {
							add(i, j, dep.Item{Var: x, Kind: dep.Output, Vector: true,
								U: unconstrainedVec(pw.off, w.off)})
						}
					}
					if member(fi.sumWrites, x) {
						add(i, j, dep.Item{Var: x, Kind: dep.Output})
					}
				}
			}

			// Array dependences with summary (whole-array) targets:
			// ordering-only against every live access of the array.
			for _, x := range fj.sumReads {
				for _, w := range fi.writes[x] {
					if liveAt(i, x, w, j) {
						add(i, j, dep.Item{Var: x, Kind: dep.Flow})
					}
				}
				if member(fi.sumWrites, x) {
					add(i, j, dep.Item{Var: x, Kind: dep.Flow})
				}
			}
			for _, x := range fj.sumWrites {
				for _, r := range fi.reads[x] {
					if liveAt(i, x, r, j) {
						add(i, j, dep.Item{Var: x, Kind: dep.Anti})
					}
				}
				if member(fi.sumReads, x) {
					add(i, j, dep.Item{Var: x, Kind: dep.Anti})
				}
				for _, w := range fi.writes[x] {
					if liveAt(i, x, w, j) {
						add(i, j, dep.Item{Var: x, Kind: dep.Output})
					}
				}
				if member(fi.sumWrites, x) {
					add(i, j, dep.Item{Var: x, Kind: dep.Output})
				}
			}

			// Scalar dependences: flow from the last writer, anti from
			// surviving reads to the next writer, output between
			// consecutive writers.
			for _, s := range fj.flowReads {
				if member(fi.scalWrites, s) && !scalarWrittenBetween(i, j, s) {
					add(i, j, dep.Item{Var: s, Kind: dep.Flow})
				}
			}
			for _, s := range fj.scalWrites {
				if member(fi.antiReads, s) && !scalarWrittenBetween(i, j, s) {
					add(i, j, dep.Item{Var: s, Kind: dep.Anti})
				}
				if member(fi.scalWrites, s) && !scalarWrittenBetween(i, j, s) {
					add(i, j, dep.Item{Var: s, Kind: dep.Output})
				}
			}

			// Barriers order everything before them and everything
			// after them.
			if fj.barrier || (fi.barrier && !barrierBetween(i, j)) {
				add(i, j, dep.Item{Var: "$order", Kind: dep.Flow})
			}
		}
	}
	return out
}
