package liveness

import (
	"testing"

	"repro/internal/air"
	"repro/internal/sema"
)

func reg2(n int) *sema.Region {
	return &sema.Region{Lo: []int{1, 1}, Hi: []int{n, n}}
}

func sub2(lo, hi int) *sema.Region {
	return &sema.Region{Lo: []int{lo, lo}, Hi: []int{hi, hi}}
}

func arrStmt(r *sema.Region, lhs string, reads ...air.Ref) *air.ArrayStmt {
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
	return &air.ArrayStmt{Region: r, LHS: lhs, RHS: rhs}
}

func ref(a string, vs ...int) air.Ref { return air.Ref{Array: a, Off: air.Offset(vs)} }

func progOf(blocks ...*air.Block) *air.Program {
	var nodes []air.Node
	for _, b := range blocks {
		nodes = append(nodes, b)
	}
	p := &air.Program{
		Name:    "t",
		Arrays:  map[string]*air.ArrayInfo{},
		Scalars: map[string]*air.ScalarInfo{},
		Procs:   map[string]*air.Proc{},
	}
	p.Procs["main"] = &air.Proc{Name: "main", Body: nodes}
	p.Main = p.Procs["main"]
	return p
}

func has(c map[*air.Block][]string, b *air.Block, name string) bool {
	for _, n := range c[b] {
		if n == name {
			return true
		}
	}
	return false
}

func TestConfinedTempIsCandidate(t *testing.T) {
	r := reg2(8)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		arrStmt(r, "B", ref("T", 0, 0)),
	}}
	c := Candidates(progOf(b))
	if !has(c, b, "T") {
		t.Error("confined temporary not a candidate")
	}
	if has(c, b, "A") {
		t.Error("never-written input array is a candidate")
	}
}

func TestCrossBlockArrayExcluded(t *testing.T) {
	r := reg2(8)
	b1 := &air.Block{ID: 0, Stmts: []air.Stmt{arrStmt(r, "X", ref("A", 0, 0))}}
	b2 := &air.Block{ID: 1, Stmts: []air.Stmt{arrStmt(r, "B", ref("X", 0, 0))}}
	c := Candidates(progOf(b1, b2))
	if has(c, b1, "X") || has(c, b2, "X") {
		t.Error("cross-block array is a candidate")
	}
}

func TestReadBeforeWriteExcluded(t *testing.T) {
	// Loop-carried pattern: X read first, written later in the block.
	r := reg2(8)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(r, "Y", ref("X", 0, 0)),
		arrStmt(r, "X", ref("Y", 0, 0)),
	}}
	c := Candidates(progOf(b))
	if has(c, b, "X") {
		t.Error("read-before-write array is a candidate")
	}
	if !has(c, b, "Y") {
		t.Error("write-then-read array Y should be a candidate")
	}
}

func TestUncoveredOffsetReadExcluded(t *testing.T) {
	// T written over [2..7] but read shifted beyond the write.
	inner := sub2(2, 7)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(inner, "T", ref("A", 0, 0)),
		arrStmt(inner, "B", ref("T", 1, 0)), // touches row 8: uncovered
	}}
	c := Candidates(progOf(b))
	if has(c, b, "T") {
		t.Error("array with uncovered offset read is a candidate")
	}
}

func TestCoveredOffsetReadAllowed(t *testing.T) {
	// T written over the full region, read at an offset that stays
	// within the written rectangle.
	full := reg2(8)
	inner := sub2(2, 7)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(full, "T", ref("A", 0, 0)),
		arrStmt(inner, "B", ref("T", 1, 0)),
	}}
	c := Candidates(progOf(b))
	if !has(c, b, "T") {
		t.Error("fully covered array should be a candidate")
	}
}

func TestCommExcludesArray(t *testing.T) {
	r := reg2(8)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(r, "X", ref("A", 0, 0)),
		&air.CommStmt{Array: "X", Off: air.Offset{0, 1}, Region: r, Phase: air.CommRecv, MsgID: 1},
		arrStmt(r, "B", ref("X", 0, 1)),
	}}
	c := Candidates(progOf(b))
	if has(c, b, "X") {
		t.Error("communicated array is a candidate")
	}
}

func TestReduceReadCounts(t *testing.T) {
	r := reg2(8)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		&air.ReduceStmt{Target: "s", Op: air.ReduceSum, Region: r,
			Body: &air.RefExpr{Ref: ref("T", 0, 0)}},
	}}
	c := Candidates(progOf(b))
	if !has(c, b, "T") {
		t.Error("array consumed by an intra-block reduction should be a candidate")
	}
}

func TestLoopBodyBlockIsOwnScope(t *testing.T) {
	// The same block appearing inside a loop: candidates are computed
	// per block, and write-before-read arrays remain candidates even
	// though the block re-executes.
	r := reg2(8)
	body := &air.Block{ID: 1, Stmts: []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		arrStmt(r, "B", ref("T", 0, 0)),
	}}
	p := &air.Program{
		Name:    "t",
		Arrays:  map[string]*air.ArrayInfo{},
		Scalars: map[string]*air.ScalarInfo{},
		Procs:   map[string]*air.Proc{},
	}
	loop := &air.Loop{Var: "i", Lo: &air.ConstExpr{Val: 1}, Hi: &air.ConstExpr{Val: 3},
		Body: []air.Node{body}}
	p.Procs["main"] = &air.Proc{Name: "main", Body: []air.Node{loop}}
	p.Main = p.Procs["main"]
	c := Candidates(p)
	if !has(c, body, "T") {
		t.Error("loop-body temporary not a candidate")
	}
}

func TestWriteOnlyTempIsCandidate(t *testing.T) {
	// A write-only array trivially satisfies confinement: the first
	// access is a write and there are no reads to cover.
	r := reg2(8)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
	}}
	c := Candidates(progOf(b))
	if !has(c, b, "T") {
		t.Error("write-only array should be a candidate")
	}
}

func TestLastStatementWriteIsCandidate(t *testing.T) {
	// Liveness is per-block, not per-statement: an array whose only
	// write is the block's last statement is still a candidate — no
	// later read exists inside or outside the block.
	r := reg2(8)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0)),
		arrStmt(r, "T", ref("B", 0, 0)),
	}}
	c := Candidates(progOf(b))
	if !has(c, b, "T") {
		t.Error("last-statement write-only array should be a candidate")
	}
	if !has(c, b, "B") {
		t.Error("write-then-read array B should be a candidate")
	}
}

func TestMixedOffsetReadsCountOffenders(t *testing.T) {
	// T is read at a covered offset and at two uncovered ones; the
	// verdict must count exactly the uncovered reads and witness the
	// first of them.
	inner := sub2(2, 7)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(inner, "T", ref("A", 0, 0)),
		arrStmt(inner, "B", ref("T", 0, 0)),  // covered
		arrStmt(inner, "C", ref("T", 1, 0)),  // row 8: uncovered
		arrStmt(inner, "D", ref("T", -1, 0)), // row 1: uncovered
	}}
	_, verdicts := Explain(progOf(b))
	var v *Verdict
	for i := range verdicts {
		if verdicts[i].Array == "T" {
			v = &verdicts[i]
		}
	}
	if v == nil {
		t.Fatal("no verdict for T")
	}
	if v.Candidate {
		t.Fatal("T with uncovered reads is a candidate")
	}
	if v.Reason != ReasonUncoveredRead {
		t.Fatalf("reason = %q, want %q", v.Reason, ReasonUncoveredRead)
	}
	if v.Offending != 2 {
		t.Errorf("Offending = %d, want 2", v.Offending)
	}
	if got := v.Off; len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("witness offset = %v, want (1,0) (the first uncovered read)", got)
	}
}

func TestSingleOffenderIsFixitGrade(t *testing.T) {
	// Exactly one uncovered read: Offending == 1 marks the array as
	// would-contract-but-for-one-reference (the linter's fix-it case).
	inner := sub2(2, 7)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(inner, "T", ref("A", 0, 0)),
		arrStmt(inner, "B", ref("T", 1, 0)),
	}}
	_, verdicts := Explain(progOf(b))
	for _, v := range verdicts {
		if v.Array == "T" {
			if v.Offending != 1 {
				t.Errorf("Offending = %d, want 1", v.Offending)
			}
			return
		}
	}
	t.Fatal("no verdict for T")
}

func TestMultiBlockVerdictNamesFirstBlock(t *testing.T) {
	// A cross-block array's verdict carries the first referencing
	// block, so per-block reporting has exactly one home for it.
	r := reg2(8)
	b1 := &air.Block{ID: 0, Stmts: []air.Stmt{arrStmt(r, "X", ref("A", 0, 0))}}
	b2 := &air.Block{ID: 1, Stmts: []air.Stmt{arrStmt(r, "B", ref("X", 0, 0))}}
	_, verdicts := Explain(progOf(b1, b2))
	for _, v := range verdicts {
		if v.Array == "X" {
			if v.Reason != ReasonMultiBlock {
				t.Fatalf("reason = %q, want %q", v.Reason, ReasonMultiBlock)
			}
			if v.Block != b1 {
				t.Errorf("verdict block = %v, want the first referencing block", v.Block)
			}
			return
		}
	}
	t.Fatal("no verdict for X")
}

func TestEscapingArrayNeverCandidate(t *testing.T) {
	// A perfectly confined array — first access a write, every read
	// covered — is still excluded when Escapes is set: a runtime
	// handle observes its final value, so it is live at program exit.
	r := reg2(8)
	b := &air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		arrStmt(r, "B", ref("T", 0, 0)),
	}}
	p := progOf(b)
	p.Arrays["T"] = &air.ArrayInfo{Name: "T", Declared: r, Alloc: r}

	cands, _ := Explain(p)
	if !has(cands, b, "T") {
		t.Fatal("confined non-escaping T should be a candidate (test setup)")
	}

	p2 := progOf(&air.Block{ID: 0, Stmts: []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		arrStmt(r, "B", ref("T", 0, 0)),
	}})
	p2.Arrays["T"] = &air.ArrayInfo{Name: "T", Declared: r, Alloc: r, Escapes: true}
	cands2, verdicts := Explain(p2)
	if has(cands2, p2.Main.Body[0].(*air.Block), "T") {
		t.Fatal("escaping T must not be a contraction candidate")
	}
	for _, v := range verdicts {
		if v.Array == "T" {
			if v.Reason != ReasonEscapes {
				t.Fatalf("reason = %q, want %q", v.Reason, ReasonEscapes)
			}
			return
		}
	}
	t.Fatal("no verdict for T")
}
