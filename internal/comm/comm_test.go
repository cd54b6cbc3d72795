package comm

import (
	"testing"

	"repro/internal/air"
	"repro/internal/sema"
)

func reg2(n int) *sema.Region {
	return &sema.Region{Lo: []int{1, 1}, Hi: []int{n, n}}
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

func progWith(stmts []air.Stmt) (*air.Program, *air.Block) {
	b := &air.Block{Stmts: stmts}
	p := &air.Program{
		Name:    "t",
		Arrays:  map[string]*air.ArrayInfo{},
		Scalars: map[string]*air.ScalarInfo{},
		Procs:   map[string]*air.Proc{},
	}
	p.Procs["main"] = &air.Proc{Name: "main", Body: []air.Node{b}}
	p.Main = p.Procs["main"]
	return p, b
}

func countComm(b *air.Block) (send, recv int) {
	for _, s := range b.Stmts {
		if c, ok := s.(*air.CommStmt); ok {
			if c.Phase == air.CommSend {
				send++
			} else {
				recv++
			}
		}
	}
	return
}

func TestInsertBasic(t *testing.T) {
	r := reg2(8)
	prog, b := progWith([]air.Stmt{
		arrStmt(r, "A", ref("B", 0, 0)),
		arrStmt(r, "C", ref("A", 0, 1)),
	})
	res := Insert(prog, Options{Procs: 4})
	if res.Inserted != 1 {
		t.Errorf("inserted %d, want 1", res.Inserted)
	}
	if send, recv := countComm(b); send != 1 || recv != 1 {
		t.Errorf("send/recv = %d/%d, want 1/1", send, recv)
	}
	// Both halves must precede the consumer.
	var commIdx, consIdx int
	for i, s := range b.Stmts {
		switch x := s.(type) {
		case *air.CommStmt:
			commIdx = i
		case *air.ArrayStmt:
			if x.LHS == "C" {
				consIdx = i
			}
		}
	}
	if commIdx > consIdx {
		t.Error("comm inserted after its consumer")
	}
}

func TestInsertSkipsUniprocessor(t *testing.T) {
	r := reg2(8)
	prog, b := progWith([]air.Stmt{arrStmt(r, "C", ref("A", 0, 1))})
	res := Insert(prog, Options{Procs: 1})
	if res.Inserted != 0 || len(b.Stmts) != 1 {
		t.Error("comm inserted for p=1")
	}
}

func TestInsertSkipsZeroOffsets(t *testing.T) {
	r := reg2(8)
	prog, b := progWith([]air.Stmt{arrStmt(r, "C", ref("A", 0, 0))})
	Insert(prog, Options{Procs: 4})
	if s, rv := countComm(b); s+rv != 0 {
		t.Error("comm inserted for an aligned reference")
	}
}

func TestRedundancyElimination(t *testing.T) {
	r := reg2(8)
	east := []int{0, 1}
	prog, b := progWith([]air.Stmt{
		arrStmt(r, "C", ref("A", east...)),
		arrStmt(r, "D", ref("A", east...)), // same halo, still valid
	})
	res := Insert(prog, Options{Procs: 4})
	if res.Inserted != 1 || res.Eliminated != 1 {
		t.Errorf("inserted %d eliminated %d, want 1/1", res.Inserted, res.Eliminated)
	}
	if send, recv := countComm(b); send != 1 || recv != 1 {
		t.Errorf("send/recv = %d/%d, want 1/1", send, recv)
	}
}

func TestWriteInvalidatesHalo(t *testing.T) {
	r := reg2(8)
	prog, b := progWith([]air.Stmt{
		arrStmt(r, "C", ref("A", 0, 1)),
		arrStmt(r, "A", ref("B", 0, 0)), // rewrite A
		arrStmt(r, "D", ref("A", 0, 1)), // needs a fresh exchange
	})
	res := Insert(prog, Options{Procs: 4})
	if res.Inserted != 2 {
		t.Errorf("inserted %d, want 2", res.Inserted)
	}
	_ = b
}

func TestPipelineSplitsAndPlacesSend(t *testing.T) {
	r := reg2(8)
	prog, b := progWith([]air.Stmt{
		arrStmt(r, "A", ref("B", 0, 0)), // producer
		arrStmt(r, "X", ref("Y", 0, 0)), // unrelated (overlap window)
		arrStmt(r, "C", ref("A", 0, 1)), // consumer
	})
	res := Insert(prog, Options{Procs: 4})
	if res.Inserted != 1 {
		t.Fatalf("inserted %d, want 1", res.Inserted)
	}
	send, recv := countComm(b)
	if send != 1 || recv != 1 {
		t.Fatalf("send/recv = %d/%d", send, recv)
	}
	// Send goes right after the producer; recv right before consumer;
	// the unrelated statement sits between them.
	var sendIdx, recvIdx, midIdx int
	for i, s := range b.Stmts {
		switch x := s.(type) {
		case *air.CommStmt:
			if x.Phase == air.CommSend {
				sendIdx = i
			} else {
				recvIdx = i
			}
		case *air.ArrayStmt:
			if x.LHS == "X" {
				midIdx = i
			}
		}
	}
	if !(sendIdx < midIdx && midIdx < recvIdx) {
		t.Errorf("send@%d mid@%d recv@%d: overlap window empty", sendIdx, midIdx, recvIdx)
	}
}

func TestSegments(t *testing.T) {
	r := reg2(8)
	stmts := []air.Stmt{
		arrStmt(r, "A", ref("B", 0, 0)),
		&air.CommStmt{Array: "A", Off: air.Offset{0, 1}, Region: r, Phase: air.CommRecv, MsgID: 1},
		arrStmt(r, "C", ref("A", 0, 1)),
		arrStmt(r, "D", ref("C", 0, 0)),
	}
	seg := Segments(stmts)
	if seg[0] != 0 || seg[1] != 1 || seg[2] != 1 || seg[3] != 1 {
		t.Errorf("segments = %v", seg)
	}
}

func TestReduceReadsGetComm(t *testing.T) {
	r := reg2(8)
	prog, b := progWith([]air.Stmt{
		&air.ReduceStmt{Target: "s", Op: air.ReduceSum, Region: r,
			Body: &air.RefExpr{Ref: ref("A", 1, 0)}},
	})
	res := Insert(prog, Options{Procs: 4})
	if res.Inserted != 1 {
		t.Errorf("inserted %d, want 1", res.Inserted)
	}
	_ = b
}
