package dep

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/sema"
)

// Edge is a dependence between two statements of a block, identified
// by their indices within the block. From precedes To in program
// order, and To depends on From.
type Edge struct {
	From, To int
	Items    []Item
}

// rect is the rectangle of array elements touched by one access:
// the statement region shifted by the access offset.
type rect struct {
	lo, hi []int
}

func makeRect(reg *sema.Region, off air.Offset) rect {
	r := rect{lo: make([]int, reg.Rank()), hi: make([]int, reg.Rank())}
	for i := 0; i < reg.Rank(); i++ {
		d := 0
		if off != nil {
			d = off[i]
		}
		r.lo[i] = reg.Lo[i] + d
		r.hi[i] = reg.Hi[i] + d
	}
	return r
}

func (r rect) overlaps(o rect) bool {
	// Rank mismatch only arises against the "everything" rectangle of
	// a summarized call; compare the common prefix (permissive).
	n := len(r.lo)
	if len(o.lo) < n {
		n = len(o.lo)
	}
	for i := 0; i < n; i++ {
		if r.hi[i] < o.lo[i] || o.hi[i] < r.lo[i] {
			return false
		}
	}
	return true
}

func (r rect) contains(o rect) bool {
	if len(r.lo) != len(o.lo) {
		return false
	}
	for i := range r.lo {
		if r.lo[i] > o.lo[i] || r.hi[i] < o.hi[i] {
			return false
		}
	}
	return true
}

// access records one array access by a statement.
type access struct {
	stmt int
	off  air.Offset
	rc   rect
}

// arrayAccess describes the array reads and writes of a statement.
// When slab is non-nil it overrides the touched rectangle (used by
// communication primitives, which write only the halo slab outside
// the region, not the whole shifted region).
type arrayAccess struct {
	array string
	off   air.Offset
	reg   *sema.Region
	slab  *sema.Region
}

// rectOf computes the element rectangle an access touches.
func rectOf(a arrayAccess) rect {
	if a.slab != nil {
		return makeRect(a.slab, nil)
	}
	return makeRect(a.reg, a.off)
}

// HaloRect returns the rectangle a ghost exchange writes: the slab
// outside the region in every displaced dimension (strips for cardinal
// directions, corners for diagonal ones). Slabs of distinct neighbor
// directions are disjoint, which is what keeps exchanges from carrying
// spurious dependences against each other; package comm decomposes
// multi-direction offsets into such per-direction exchanges.
func HaloRect(reg *sema.Region, off air.Offset) *sema.Region {
	lo := make([]int, reg.Rank())
	hi := make([]int, reg.Rank())
	for k := 0; k < reg.Rank(); k++ {
		switch {
		case off[k] > 0:
			lo[k] = reg.Hi[k] + 1
			hi[k] = reg.Hi[k] + off[k]
		case off[k] < 0:
			lo[k] = reg.Lo[k] + off[k]
			hi[k] = reg.Lo[k] - 1
		default:
			lo[k] = reg.Lo[k]
			hi[k] = reg.Hi[k]
		}
	}
	return &sema.Region{Lo: lo, Hi: hi}
}

// stmtEffects summarizes what a statement touches.
type stmtEffects struct {
	arrayReads  []arrayAccess
	arrayWrites []arrayAccess
	scalarReads []string
	scalarWrite string
	barrier     bool // I/O, returns, unsummarized calls: full barrier
	// summary, when non-nil, adds the callee's global effects as
	// ordering-only (vectorless) array dependences plus scalar deps.
	summary *air.ProcEffects
}

func effects(s air.Stmt) stmtEffects {
	var e stmtEffects
	switch x := s.(type) {
	case *air.ArrayStmt:
		e.arrayWrites = []arrayAccess{{x.LHS, air.Zero(x.Region.Rank()), x.Region, nil}}
		for _, r := range x.Reads() {
			e.arrayReads = append(e.arrayReads, arrayAccess{r.Array, r.Off, x.Region, nil})
		}
		e.scalarReads = air.ScalarReads(x.RHS)
	case *air.ScalarStmt:
		e.scalarReads = air.ScalarReads(x.RHS)
		e.scalarWrite = x.LHS
	case *air.ReduceStmt:
		for _, r := range air.Refs(x.Body) {
			e.arrayReads = append(e.arrayReads, arrayAccess{r.Array, r.Off, x.Region, nil})
		}
		e.scalarReads = air.ScalarReads(x.Body)
		e.scalarWrite = x.Target
	case *air.PartialReduceStmt:
		e.arrayWrites = []arrayAccess{{x.LHS, air.Zero(x.Dest.Rank()), x.Dest, nil}}
		for _, r := range air.Refs(x.Body) {
			e.arrayReads = append(e.arrayReads, arrayAccess{r.Array, r.Off, x.Region, nil})
		}
		e.scalarReads = air.ScalarReads(x.Body)
	case *air.CommStmt:
		// A ghost exchange's send reads interior elements and its
		// receive writes only the halo slabs outside the region. The
		// pair is ordered through a pseudo-scalar keyed by the message id.
		if x.Phase == air.CommSend {
			e.arrayReads = []arrayAccess{{x.Array, air.Zero(x.Region.Rank()), x.Region, nil}}
			e.scalarWrite = fmt.Sprintf("$msg%d", x.MsgID)
		} else {
			e.arrayWrites = []arrayAccess{{x.Array, x.Off, x.Region, HaloRect(x.Region, x.Off)}}
			e.scalarReads = []string{fmt.Sprintf("$msg%d", x.MsgID)}
		}
	case *air.WritelnStmt:
		for _, a := range x.Args {
			if a.Expr != nil {
				e.scalarReads = append(e.scalarReads, air.ScalarReads(a.Expr)...)
			}
		}
		e.barrier = true
	case *air.CallStmt:
		for _, a := range x.Args {
			e.scalarReads = append(e.scalarReads, air.ScalarReads(a)...)
		}
		if x.Target != "" {
			e.scalarWrite = x.Target
		}
		if x.Effects == nil || x.Effects.IO {
			// Unknown callee or callee I/O: full ordering barrier.
			e.barrier = true
			break
		}
		// Summarized call: touches exactly the callee's globals.
		// Array accesses have no offset information, so they enter as
		// whole-array ordering accesses (nil region handled by the
		// caller via summary rectangles below).
		e.summary = x.Effects
	case *air.ReturnStmt:
		if x.Value != nil {
			e.scalarReads = air.ScalarReads(x.Value)
		}
		e.barrier = true
	}
	return e
}

// Compute builds the dependence edges among the statements of a block.
// Array dependences carry unconstrained distance vectors; scalar and
// barrier dependences are ordering-only items.
//
// The computation is kill-aware: a write whose touched rectangle
// contains an earlier access's rectangle retires that access, so
// dependences are not reported across redefinitions. (Distinct live
// ranges of an array therefore optimize separately, the refinement
// noted in the paper's §4.1 footnote.)
func Compute(stmts []air.Stmt) []Edge {
	return compute(stmts, true)
}

// ComputeNaive is Compute without kill-awareness: accesses are never
// retired by covering writes, so dependences are reported across
// redefinitions. It exists for the DESIGN.md ablation quantifying the
// paper's live-range footnote (§4.1) — the precision kill-awareness
// buys shows up as contraction opportunities lost without it.
func ComputeNaive(stmts []air.Stmt) []Edge {
	return compute(stmts, false)
}

func compute(stmts []air.Stmt, killAware bool) []Edge {
	type key struct{ from, to int }
	edges := map[key]*Edge{}
	var order []key

	addItem := func(from, to int, it Item) {
		if from == to {
			return
		}
		k := key{from, to}
		e, ok := edges[k]
		if !ok {
			e = &Edge{From: from, To: to}
			edges[k] = e
			order = append(order, k)
		}
		for _, have := range e.Items {
			if have.Var == it.Var && have.Kind == it.Kind && have.Vector == it.Vector &&
				(!it.Vector || have.U.Equal(it.U)) {
				return
			}
		}
		e.Items = append(e.Items, it)
	}

	writes := map[string][]access{} // active writes per array
	reads := map[string][]access{}  // active reads per array
	lastScalarWrite := map[string]int{}
	scalarReadsSince := map[string][]int{}
	lastBarrier := -1

	for j, s := range stmts {
		eff := effects(s)

		if lastBarrier >= 0 {
			addItem(lastBarrier, j, Item{Var: "$order", Kind: Flow})
		}

		// Array reads: flow dependences from active writes.
		for _, ar := range eff.arrayReads {
			rc := rectOf(ar)
			for _, w := range writes[ar.array] {
				if !w.rc.overlaps(rc) {
					continue
				}
				if w.off == nil {
					// Writer was a summarized call: ordering only.
					addItem(w.stmt, j, Item{Var: ar.array, Kind: Flow})
					continue
				}
				addItem(w.stmt, j, Item{
					Var: ar.array, Kind: Flow, Vector: true,
					U: Unconstrained(w.off, ar.off),
				})
			}
		}
		// Array writes: anti dependences from active reads, output
		// dependences from active writes.
		for _, aw := range eff.arrayWrites {
			rc := rectOf(aw)
			for _, r := range reads[aw.array] {
				if !r.rc.overlaps(rc) {
					continue
				}
				if r.off == nil {
					addItem(r.stmt, j, Item{Var: aw.array, Kind: Anti})
					continue
				}
				addItem(r.stmt, j, Item{
					Var: aw.array, Kind: Anti, Vector: true,
					U: Unconstrained(r.off, aw.off),
				})
			}
			for _, w := range writes[aw.array] {
				if !w.rc.overlaps(rc) {
					continue
				}
				if w.off == nil {
					addItem(w.stmt, j, Item{Var: aw.array, Kind: Output})
					continue
				}
				addItem(w.stmt, j, Item{
					Var: aw.array, Kind: Output, Vector: true,
					U: Unconstrained(w.off, aw.off),
				})
			}
		}

		// Scalar dependences.
		for _, name := range eff.scalarReads {
			if w, ok := lastScalarWrite[name]; ok {
				addItem(w, j, Item{Var: name, Kind: Flow})
			}
		}
		if eff.scalarWrite != "" {
			name := eff.scalarWrite
			for _, r := range scalarReadsSince[name] {
				addItem(r, j, Item{Var: name, Kind: Anti})
			}
			if w, ok := lastScalarWrite[name]; ok {
				addItem(w, j, Item{Var: name, Kind: Output})
			}
		}

		if eff.summary != nil {
			// Callee-touched arrays: ordering-only dependences against
			// every active access of those arrays, and registration of
			// an "everywhere" access so later statements order too.
			for _, name := range eff.summary.ArraysRead {
				for _, w := range writes[name] {
					addItem(w.stmt, j, Item{Var: name, Kind: Flow})
				}
			}
			for _, name := range eff.summary.ArraysWritten {
				for _, r := range reads[name] {
					addItem(r.stmt, j, Item{Var: name, Kind: Anti})
				}
				for _, w := range writes[name] {
					addItem(w.stmt, j, Item{Var: name, Kind: Output})
				}
			}
			for _, name := range eff.summary.ScalarsRead {
				if w, ok := lastScalarWrite[name]; ok {
					addItem(w, j, Item{Var: name, Kind: Flow})
				}
			}
			for _, name := range eff.summary.ScalarsWritten {
				for _, r := range scalarReadsSince[name] {
					addItem(r, j, Item{Var: name, Kind: Anti})
				}
				if w, ok := lastScalarWrite[name]; ok {
					addItem(w, j, Item{Var: name, Kind: Output})
				}
			}
		}

		if eff.barrier {
			for i := 0; i < j; i++ {
				addItem(i, j, Item{Var: "$order", Kind: Flow})
			}
			lastBarrier = j
		}

		// Update state: kills, then registrations.
		if killAware {
			for _, aw := range eff.arrayWrites {
				rc := rectOf(aw)
				writes[aw.array] = retire(writes[aw.array], rc)
				reads[aw.array] = retire(reads[aw.array], rc)
			}
		}
		for _, aw := range eff.arrayWrites {
			writes[aw.array] = append(writes[aw.array],
				access{stmt: j, off: aw.off.Clone(), rc: rectOf(aw)})
		}
		for _, ar := range eff.arrayReads {
			reads[ar.array] = append(reads[ar.array],
				access{stmt: j, off: ar.off.Clone(), rc: rectOf(ar)})
		}
		for _, name := range eff.scalarReads {
			scalarReadsSince[name] = append(scalarReadsSince[name], j)
		}
		if eff.scalarWrite != "" {
			lastScalarWrite[eff.scalarWrite] = j
			scalarReadsSince[eff.scalarWrite] = nil
		}
		if eff.summary != nil {
			// Register whole-array accesses (huge rectangles) so later
			// statements see the call's effects; offsets are unknown,
			// so the rect spans everything the call might touch.
			for _, name := range eff.summary.ArraysRead {
				reads[name] = append(reads[name], access{stmt: j, off: nil, rc: everything()})
			}
			for _, name := range eff.summary.ArraysWritten {
				writes[name] = append(writes[name], access{stmt: j, off: nil, rc: everything()})
			}
			for _, name := range eff.summary.ScalarsRead {
				scalarReadsSince[name] = append(scalarReadsSince[name], j)
			}
			for _, name := range eff.summary.ScalarsWritten {
				lastScalarWrite[name] = j
				scalarReadsSince[name] = nil
			}
		}
	}

	out := make([]Edge, 0, len(order))
	for _, k := range order {
		out = append(out, *edges[k])
	}
	return out
}

// everything returns a rectangle covering any index (rank is
// irrelevant: overlaps() is permissive on rank mismatch for these).
func everything() rect {
	const big = 1 << 30
	return rect{lo: []int{-big, -big, -big, -big}, hi: []int{big, big, big, big}}
}

// retire removes accesses fully covered by the killing rectangle.
func retire(as []access, kill rect) []access {
	keep := as[:0]
	for _, a := range as {
		if !kill.contains(a.rc) {
			keep = append(keep, a)
		}
	}
	return keep
}
