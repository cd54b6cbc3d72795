package dep

import (
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
