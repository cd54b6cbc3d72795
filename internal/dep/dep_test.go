package dep

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/sema"
)

func off(vs ...int) air.Offset { return air.Offset(vs) }

func TestUnconstrained(t *testing.T) {
	// The three dependences of Figure 2(b).
	tests := []struct {
		src, dst, want air.Offset
	}{
		{off(0, 0), off(0, -1), off(0, 1)},  // flow on A, stmt 1 -> 2
		{off(0, 0), off(-1, 1), off(1, -1)}, // flow on A, stmt 1 -> 3
		{off(-1, 0), off(0, 0), off(-1, 0)}, // anti on B, stmt 1 -> 3
	}
	for _, tt := range tests {
		if got := Unconstrained(tt.src, tt.dst); !got.Equal(tt.want) {
			t.Errorf("Unconstrained(%v, %v) = %v, want %v", tt.src, tt.dst, got, tt.want)
		}
	}
}

func TestConstrain(t *testing.T) {
	// §2.2: constraining (-1,0) and (1,-1) by p = (-2,-1) yields
	// (0,1) and (1,-1).
	p := LoopStructure{-2, -1}
	if got := Constrain(off(-1, 0), p); !got.Equal(off(0, 1)) {
		t.Errorf("Constrain((-1,0), (-2,-1)) = %v, want (0,1)", got)
	}
	if got := Constrain(off(1, -1), p); !got.Equal(off(1, -1)) {
		t.Errorf("Constrain((1,-1), (-2,-1)) = %v, want (1,-1)", got)
	}
	// Identity structure returns u itself.
	id := LoopStructure{1, 2}
	if got := Constrain(off(3, -2), id); !got.Equal(off(3, -2)) {
		t.Errorf("Constrain under identity = %v", got)
	}
}

func TestLexNonNegative(t *testing.T) {
	tests := []struct {
		d    air.Offset
		want bool
	}{
		{off(0, 0), true},
		{off(1, -5), true},
		{off(0, 1), true},
		{off(-1, 9), false},
		{off(0, -1), false},
	}
	for _, tt := range tests {
		if got := LexNonNegative(tt.d); got != tt.want {
			t.Errorf("LexNonNegative(%v) = %v, want %v", tt.d, got, tt.want)
		}
	}
}

func TestLoopStructureValid(t *testing.T) {
	valid := []LoopStructure{{1}, {-1}, {2, 1}, {-2, -1}, {1, -2, 3}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []LoopStructure{{0}, {1, 1}, {-1, 1}, {3, 1}, {2}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestPreserves(t *testing.T) {
	// From Fig. 2: p = (-2,-1) preserves {(-1,0), (1,-1)}.
	us := []air.Offset{off(-1, 0), off(1, -1)}
	if !Preserves(LoopStructure{-2, -1}, us) {
		t.Error("(-2,-1) should preserve the Fig. 2 dependences")
	}
	// The identity structure does not: (-1,0) constrains to itself.
	if Preserves(LoopStructure{1, 2}, us) {
		t.Error("(1,2) should not preserve (-1,0)")
	}
}

// ---------------------------------------------------------------------------
// Block dependence computation

func reg2(m, n int) *sema.Region {
	return &sema.Region{Lo: []int{1, 1}, Hi: []int{m, n}}
}

func arrStmt(id int, r *sema.Region, lhs string, reads ...air.Ref) *air.ArrayStmt {
	var rhs air.Expr
	for _, rd := range reads {
		ref := &air.RefExpr{Ref: rd}
		if rhs == nil {
			rhs = ref
		} else {
			rhs = &air.BinExpr{Op: air.OpAdd, X: rhs, Y: ref}
		}
	}
	if rhs == nil {
		rhs = &air.ConstExpr{Val: 1}
	}
	return &air.ArrayStmt{ID: id, Region: r, LHS: lhs, RHS: rhs}
}

func findItem(es []Edge, from, to int, v string, k Kind) *Item {
	for _, e := range es {
		if e.From != from || e.To != to {
			continue
		}
		for i, it := range e.Items {
			if it.Var == v && it.Kind == k {
				return &e.Items[i]
			}
		}
	}
	return nil
}

// TestFigure2Dependences reproduces the ASDG of Fig. 2(d).
func TestFigure2Dependences(t *testing.T) {
	r := reg2(4, 4)
	stmts := []air.Stmt{
		arrStmt(0, r, "A", air.Ref{Array: "B", Off: off(-1, 0)}),
		arrStmt(1, r, "C", air.Ref{Array: "A", Off: off(0, -1)}),
		arrStmt(2, r, "B", air.Ref{Array: "A", Off: off(-1, 1)}),
	}
	es := Compute(stmts)

	if it := findItem(es, 0, 1, "A", Flow); it == nil || !it.U.Equal(off(0, 1)) {
		t.Errorf("flow A 0->1: got %v, want u=(0,1)", it)
	}
	if it := findItem(es, 0, 2, "A", Flow); it == nil || !it.U.Equal(off(1, -1)) {
		t.Errorf("flow A 0->2: got %v, want u=(1,-1)", it)
	}
	if it := findItem(es, 0, 2, "B", Anti); it == nil || !it.U.Equal(off(-1, 0)) {
		t.Errorf("anti B 0->2: got %v, want u=(-1,0)", it)
	}
	// No dependence between statements 1 and 2.
	if it := findItem(es, 1, 2, "A", Flow); it != nil {
		t.Errorf("unexpected dependence 1->2: %v", it)
	}
}

func TestKillAwareness(t *testing.T) {
	r := reg2(4, 4)
	// A := B; A := C; D := A  — the redefinition of A kills the first
	// write, so the only flow on A is 1 -> 2.
	stmts := []air.Stmt{
		arrStmt(0, r, "A", air.Ref{Array: "B", Off: off(0, 0)}),
		arrStmt(1, r, "A", air.Ref{Array: "C", Off: off(0, 0)}),
		arrStmt(2, r, "D", air.Ref{Array: "A", Off: off(0, 0)}),
	}
	es := Compute(stmts)
	if it := findItem(es, 0, 2, "A", Flow); it != nil {
		t.Errorf("killed flow dependence 0->2 reported: %v", it)
	}
	if it := findItem(es, 1, 2, "A", Flow); it == nil || !it.U.IsZero() {
		t.Errorf("flow A 1->2 missing or wrong: %v", it)
	}
	if it := findItem(es, 0, 1, "A", Output); it == nil || !it.U.IsZero() {
		t.Errorf("output A 0->1 missing: %v", it)
	}
}

func TestPartialWriteDoesNotKill(t *testing.T) {
	full := reg2(4, 4)
	part := &sema.Region{Lo: []int{2, 2}, Hi: []int{3, 3}}
	// A := B over full; A := C over interior; D := A over full.
	// The partial redefinition must NOT kill the first write.
	stmts := []air.Stmt{
		arrStmt(0, full, "A", air.Ref{Array: "B", Off: off(0, 0)}),
		arrStmt(1, part, "A", air.Ref{Array: "C", Off: off(0, 0)}),
		arrStmt(2, full, "D", air.Ref{Array: "A", Off: off(0, 0)}),
	}
	es := Compute(stmts)
	if it := findItem(es, 0, 2, "A", Flow); it == nil {
		t.Error("flow 0->2 incorrectly killed by partial write")
	}
	if it := findItem(es, 1, 2, "A", Flow); it == nil {
		t.Error("flow 1->2 missing")
	}
}

func TestDisjointRegionsNoDependence(t *testing.T) {
	top := &sema.Region{Lo: []int{1, 1}, Hi: []int{2, 4}}
	bot := &sema.Region{Lo: []int{3, 1}, Hi: []int{4, 4}}
	stmts := []air.Stmt{
		arrStmt(0, top, "A", air.Ref{Array: "B", Off: off(0, 0)}),
		arrStmt(1, bot, "A", air.Ref{Array: "C", Off: off(0, 0)}),
	}
	es := Compute(stmts)
	if it := findItem(es, 0, 1, "A", Output); it != nil {
		t.Errorf("disjoint writes should not depend: %v", it)
	}
}

func TestScalarDependences(t *testing.T) {
	r := reg2(4, 4)
	// s := 1; [R] A := s; s := 2
	stmts := []air.Stmt{
		&air.ScalarStmt{LHS: "s", RHS: &air.ConstExpr{Val: 1}},
		&air.ArrayStmt{ID: 0, Region: r, LHS: "A", RHS: &air.ScalarExpr{Name: "s"}},
		&air.ScalarStmt{LHS: "s", RHS: &air.ConstExpr{Val: 2}},
	}
	es := Compute(stmts)
	if it := findItem(es, 0, 1, "s", Flow); it == nil || it.Vector {
		t.Errorf("scalar flow 0->1 missing or vectored: %v", it)
	}
	if it := findItem(es, 1, 2, "s", Anti); it == nil {
		t.Errorf("scalar anti 1->2 missing")
	}
	if it := findItem(es, 0, 2, "s", Output); it == nil {
		t.Errorf("scalar output 0->2 missing")
	}
}

func TestBarrierOrdering(t *testing.T) {
	r := reg2(4, 4)
	stmts := []air.Stmt{
		arrStmt(0, r, "A", air.Ref{Array: "B", Off: off(0, 0)}),
		&air.WritelnStmt{Args: []air.WriteArg{{Str: "hi"}}},
		arrStmt(1, r, "C", air.Ref{Array: "D", Off: off(0, 0)}),
	}
	es := Compute(stmts)
	if findItem(es, 0, 1, "$order", Flow) == nil {
		t.Error("barrier must depend on prior statements")
	}
	if findItem(es, 1, 2, "$order", Flow) == nil {
		t.Error("statements after a barrier must depend on it")
	}
}

func TestCommDependences(t *testing.T) {
	r := reg2(4, 4)
	east := off(0, 1)
	// A := B;  send A@east;  recv A@east;  C := A@east
	stmts := []air.Stmt{
		arrStmt(0, r, "A", air.Ref{Array: "B", Off: off(0, 0)}),
		&air.CommStmt{Array: "A", Off: east, Region: r, Phase: air.CommSend, MsgID: 1},
		&air.CommStmt{Array: "A", Off: east, Region: r, Phase: air.CommRecv, MsgID: 1},
		arrStmt(1, r, "C", air.Ref{Array: "A", Off: east}),
	}
	es := Compute(stmts)
	// The send reads A after its producer: flow 0->1.
	if it := findItem(es, 0, 1, "A", Flow); it == nil {
		t.Error("flow producer->send missing")
	}
	// The receive waits for its send through the message id.
	if it := findItem(es, 1, 2, "$msg1", Flow); it == nil {
		t.Error("flow send->recv missing")
	}
	// The consumer reads the halo the receive wrote: flow 2->3, u = 0.
	if it := findItem(es, 2, 3, "A", Flow); it == nil || !it.U.IsZero() {
		t.Errorf("flow recv->consumer: %v, want null vector", it)
	}
}

func TestReduceDependences(t *testing.T) {
	r := reg2(4, 4)
	stmts := []air.Stmt{
		arrStmt(0, r, "A", air.Ref{Array: "B", Off: off(0, 0)}),
		&air.ReduceStmt{Target: "s", Op: air.ReduceSum, Region: r,
			Body: &air.RefExpr{Ref: air.Ref{Array: "A", Off: off(0, 0)}}},
		&air.ScalarStmt{LHS: "t", RHS: &air.ScalarExpr{Name: "s"}},
	}
	es := Compute(stmts)
	if it := findItem(es, 0, 1, "A", Flow); it == nil {
		t.Error("flow into reduction missing")
	}
	if it := findItem(es, 1, 2, "s", Flow); it == nil {
		t.Error("scalar flow out of reduction missing")
	}
}

// render prints the edges of a block the way zplc -emit asdg does.
func render(es []Edge) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("v%d -> v%d:", e.From, e.To)
		for _, it := range e.Items {
			out[i] += " " + it.String()
		}
	}
	return out
}

func send(a string, d air.Offset, r *sema.Region, id int) *air.CommStmt {
	return &air.CommStmt{Array: a, Off: d, Region: r, Phase: air.CommSend, MsgID: id}
}

func recv(a string, d air.Offset, r *sema.Region, id int) *air.CommStmt {
	return &air.CommStmt{Array: a, Off: d, Region: r, Phase: air.CommRecv, MsgID: id}
}

// TestReceiveWritesItsGhost: a receive of A@dir writes ghost(A, dir)
// and nothing else, so it is a dependence of every later read of that
// halo whatever the read's region, and of no access that does not
// read it. Both blocks are zplc -emit asdg output at p=2.
func TestReceiveWritesItsGhost(t *testing.T) {
	sq := func(lo, hi int) *sema.Region { return &sema.Region{Lo: []int{lo, lo}, Hi: []int{hi, hi}} }
	ref := func(a string, d air.Offset) air.Ref { return air.Ref{Array: a, Off: d} }
	scalar := func(lhs string, rhs ...string) *air.ScalarStmt {
		var e air.Expr = &air.ScalarExpr{Name: rhs[0]}
		for _, x := range rhs[1:] {
			e = &air.BinExpr{Op: air.OpAdd, X: e, Y: &air.ScalarExpr{Name: x}}
		}
		return &air.ScalarStmt{LHS: lhs, RHS: e}
	}
	R, I := sq(1, 8), sq(2, 7)
	w, s, sw := off(-1, 0), off(0, -1), off(-1, -1)

	// testdata/provers/halo_race.za at c2+f3, block 1: v17 reuses the
	// A0@(0,-1) halo v14 received for v16, whose region is wider. The
	// A0 ghost cells v14 fills are interior columns of the neighbour's
	// block, so v17 must stay below v14.
	halo := []air.Stmt{
		send("A1", off(1, 0), I, 1), recv("A1", off(1, 0), I, 1),
		send("A1", s, I, 2), recv("A1", s, I, 2),
		send("A1", off(1, -1), I, 3), recv("A1", off(1, -1), I, 3),
		arrStmt(0, I, "A0", ref("A1", off(1, -1))),
		send("A0", w, R, 4), send("A0", s, R, 5), send("A0", sw, R, 6),
		&air.ReduceStmt{Target: "_s1", Op: air.ReduceSum, Region: I,
			Body: &air.RefExpr{Ref: ref("A3", off(0, 0))}},
		scalar("s", "_s1"),
		scalar("acc", "acc", "s"),
		recv("A0", w, R, 4), recv("A0", s, R, 5), recv("A0", sw, R, 6),
		arrStmt(1, R, "A2", ref("A0", sw)),
		arrStmt(2, I, "A1", ref("A3", off(0, 0)), ref("A0", s)),
	}
	want := []string{
		"v0 -> v1: ($msg1, -, flow)",
		"v2 -> v3: ($msg2, -, flow)",
		"v4 -> v5: ($msg3, -, flow)",
		"v1 -> v6: (A1, (0,1), flow)",
		"v3 -> v6: (A1, (-1,0), flow)",
		"v5 -> v6: (A1, (0,0), flow)",
		"v6 -> v7: (A0, (0,0), flow)",
		"v6 -> v8: (A0, (0,0), flow)",
		"v6 -> v9: (A0, (0,0), flow)",
		"v10 -> v11: (_s1, -, flow)",
		"v11 -> v12: (s, -, flow)",
		"v7 -> v13: ($msg4, -, flow)",
		"v8 -> v14: ($msg5, -, flow)",
		"v9 -> v15: ($msg6, -, flow)",
		"v6 -> v16: (A0, (1,1), flow)",
		"v13 -> v16: (A0, (0,1), flow)",
		"v14 -> v16: (A0, (1,0), flow)",
		"v15 -> v16: (A0, (0,0), flow)",
		"v6 -> v17: (A0, (0,1), flow) (A1, (1,-1), anti)",
		"v14 -> v17: (A0, (0,0), flow)",
		"v0 -> v17: (A1, (0,0), anti)",
		"v2 -> v17: (A1, (0,0), anti)",
		"v4 -> v17: (A1, (0,0), anti)",
	}
	if got := render(Compute(halo)); !slices.Equal(got, want) {
		t.Errorf("halo_race block 1:\ngot\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// A receive of A@(0,-1) over [2..8,2..8]: its ghost is neither the
	// elements the earlier write v0 or the send v3 touch, nor a
	// direction C := A@(-1,0) reads, whatever the regions. A slab
	// outside the region gave all three an edge from v2.
	J := &sema.Region{Lo: []int{2, 2}, Hi: []int{8, 8}}
	slab := []air.Stmt{
		arrStmt(0, R, "A"),
		send("A", s, J, 1), recv("A", s, J, 1),
		send("A", w, R, 2),
		arrStmt(1, J, "B", ref("A", s)),
		recv("A", w, R, 2),
		arrStmt(2, R, "C", ref("A", w)),
	}
	want = []string{
		"v0 -> v1: (A, (0,0), flow)",
		"v1 -> v2: ($msg1, -, flow)",
		"v0 -> v3: (A, (0,0), flow)",
		"v0 -> v4: (A, (0,1), flow)",
		"v2 -> v4: (A, (0,0), flow)",
		"v3 -> v5: ($msg2, -, flow)",
		"v0 -> v6: (A, (1,0), flow)",
		"v5 -> v6: (A, (0,0), flow)",
	}
	if got := render(Compute(slab)); !slices.Equal(got, want) {
		t.Errorf("slab block:\ngot\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
