package air

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sema"
)

func TestOffsetOps(t *testing.T) {
	z := Zero(3)
	if !z.IsZero() || len(z) != 3 {
		t.Errorf("Zero(3) = %v", z)
	}
	o := Offset{1, -2}
	if o.IsZero() {
		t.Error("nonzero offset reported zero")
	}
	c := o.Clone()
	c[0] = 9
	if o[0] != 1 {
		t.Error("Clone aliases its source")
	}
	if !o.Equal(Offset{1, -2}) || o.Equal(Offset{1, 2}) || o.Equal(Offset{1}) {
		t.Error("Equal broken")
	}
	if o.String() != "(1,-2)" {
		t.Errorf("String = %q", o.String())
	}
}

func TestExprWalkAndRefs(t *testing.T) {
	e := &BinExpr{
		Op: OpAdd,
		X:  &RefExpr{Ref: Ref{Array: "A", Off: Offset{0, 1}}},
		Y: &CallExpr{Name: "max", Args: []Expr{
			&RefExpr{Ref: Ref{Array: "B", Off: Offset{0, 0}}},
			&ScalarExpr{Name: "s"},
		}},
	}
	refs := Refs(e)
	if len(refs) != 2 || refs[0].Array != "A" || refs[1].Array != "B" {
		t.Errorf("Refs = %v", refs)
	}
	if sr := ScalarReads(e); len(sr) != 1 || sr[0] != "s" {
		t.Errorf("ScalarReads = %v", sr)
	}
	if !strings.Contains(e.String(), "A@(0,1)") {
		t.Errorf("String = %q", e.String())
	}
}

func TestReduceIdentities(t *testing.T) {
	if ReduceSum.Identity() != 0 || ReduceProd.Identity() != 1 {
		t.Error("sum/prod identities wrong")
	}
	if !math.IsInf(ReduceMax.Identity(), -1) || !math.IsInf(ReduceMin.Identity(), 1) {
		t.Error("max/min identities wrong")
	}
}

func TestArrayInfoHalo(t *testing.T) {
	decl := &sema.Region{Lo: []int{1, 1}, Hi: []int{8, 8}}
	alloc := &sema.Region{Lo: []int{0, 1}, Hi: []int{8, 10}}
	a := &ArrayInfo{Name: "A", Elem: ast.Double, Declared: decl, Alloc: alloc}
	lo, hi := a.Halo()
	if lo[0] != 1 || lo[1] != 0 || hi[0] != 0 || hi[1] != 2 {
		t.Errorf("halo = %v / %v", lo, hi)
	}
}

func TestBlocksTraversal(t *testing.T) {
	b1 := &Block{ID: 1}
	b2 := &Block{ID: 2}
	b3 := &Block{ID: 3}
	nodes := []Node{
		b1,
		&Loop{Var: "i", Body: []Node{b2}},
		&If{Then: []Node{b3}, Else: nil},
	}
	bs := Blocks(nodes)
	if len(bs) != 3 || bs[0].ID != 1 || bs[1].ID != 2 || bs[2].ID != 3 {
		t.Errorf("Blocks = %v", bs)
	}
}

func TestStatementStrings(t *testing.T) {
	r := &sema.Region{Lo: []int{1}, Hi: []int{4}}
	stmts := []Stmt{
		&ArrayStmt{Region: r, LHS: "A", RHS: &ConstExpr{Val: 1}},
		&ScalarStmt{LHS: "s", RHS: &ConstExpr{Val: 2}},
		&ReduceStmt{Target: "s", Op: ReduceSum, Region: r, Body: &ScalarExpr{Name: "x"}},
		&CommStmt{Array: "A", Off: Offset{1}, Region: r, Phase: CommSend},
		&WritelnStmt{Args: []WriteArg{{Str: "hi"}}},
		&CallStmt{Proc: "f"},
		&ReturnStmt{},
	}
	for _, s := range stmts {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
}

// TestCommPhaseValues pins the two phases' integers: the envelope codec
// writes them and the VM trace hashes print them, so renumbering either
// moves stored artifacts and testdata/vm/trace_hashes.json.
func TestCommPhaseValues(t *testing.T) {
	if CommSend != 1 || CommRecv != 2 {
		t.Errorf("CommSend = %d, CommRecv = %d; the wire format needs 1 and 2", CommSend, CommRecv)
	}
}
