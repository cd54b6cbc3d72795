package lazy

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/remark"
)

// diffZA is the reference program for the differential test: stencil
// reads, a user temporary, a copy, max- and sum-reductions, and
// writelns inside an iteration — the shapes the lazy engine must
// reproduce byte-for-byte.
const diffZA = `
program diff;
config n : integer = 12;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
direction north = (-1, 0); south = (1, 0); west = (0, -1); east = (0, 1);
var A, B : [R] double;
var T : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2 * 0.5;
  [R] B := 0.0;
  for it := 1 to 3 do
    [I] T := (A@north + A@south + A@west + A@east) * 0.25;
    [I] B := T + A * 0.5;
    s := max<< [I] abs(B - A);
    [I] A := B;
    writeln("res", s);
  end;
  s := +<< [R] A;
  writeln("sum", s);
end;
`

// runDiffLazy issues the same computation through the lazy engine,
// evaluating once per iteration like a real caller, and returns the
// writeln output. collide makes every batch shape hash alike, so only
// the memo's word-for-word comparison tells shapes apart.
func runDiffLazy(t *testing.T, opt Options, collide bool) string {
	t.Helper()
	var out bytes.Buffer
	opt.Out = &out
	e := NewEngine(opt)
	defer e.Close()
	if collide {
		e.memo.hash = collideAll
	}
	const n = 12
	R2 := R(1, n, 1, n)
	I := R(2, n-1, 2, n-1)
	A := e.Array("A", R2)
	B := e.Array("B", R2)
	s := e.Scalar("s", 0)
	A.Assign(nil, Add(Index(1), Mul(Index(2), Const(0.5))))
	B.Assign(nil, Const(0))
	for it := 0; it < 3; it++ {
		T := e.Temp("T", R2)
		T.Assign(I, Mul(Add(Add(A.At(-1, 0), A.At(1, 0)), Add(A.At(0, -1), A.At(0, 1))), Const(0.25)))
		B.Assign(I, Add(T, Mul(A, Const(0.5))))
		s.MaxOf(I, Abs(Sub(B, A)))
		A.Assign(I, B)
		e.Writeln("res", s)
		if err := e.Eval(); err != nil {
			t.Fatalf("eval iter %d: %v", it, err)
		}
	}
	s.Sum(R2, A)
	e.Writeln("sum", s)
	if err := e.Eval(); err != nil {
		t.Fatalf("final eval: %v", err)
	}
	return out.String()
}

// TestLazyMatchesZA is the differential acceptance test: the lazy
// engine's output is byte-identical to the equivalent ZA program —
// which prints the same bytes at every level of the ladder here and
// matches Reference — on the VM and (when a toolchain is present) the
// native backend, and close to Reference itself.
func TestLazyMatchesZA(t *testing.T) {
	levels := []core.Level{core.Baseline, core.C2, core.C2F4S}
	want := matrix.Check(t, matrix.Program{Name: "diff", Src: diffZA}.At(core.Baseline, 0))
	if !strings.Contains(want, "sum") {
		t.Fatalf("reference output missing sum: %q", want)
	}
	for _, lvl := range levels[1:] {
		if got := matrix.Check(t, matrix.Program{Name: "diff", Src: diffZA}.At(lvl, 0)); got != want {
			t.Errorf("ZA at %v = %q, want %q", lvl, got, want)
		}
	}
	prog, _, err := driver.FrontEnd(context.Background(), diffZA, nil, driver.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := difftest.Reference(prog, &ref); err != nil {
		t.Fatal(err)
	}
	for _, lvl := range levels {
		for _, collide := range []bool{false, true} {
			if got := runDiffLazy(t, Options{Level: lvl}, collide); got != want || !difftest.Close(got, ref.String()) {
				t.Errorf("lazy VM at %v (colliding shape hashes %v) = %q, want %q (Reference %q)",
					lvl, collide, got, want, ref.String())
			}
		}
	}
	if !backend.Available() {
		t.Skip("no go toolchain; native arm skipped")
	}
	dir := t.TempDir()
	for _, lvl := range levels {
		got := runDiffLazy(t, Options{Level: lvl, Backend: driver.BackendGo, ArtifactDir: dir}, false)
		if got != want {
			t.Errorf("lazy native at %v = %q, want %q", lvl, got, want)
		}
	}
}

// jacobiStep issues one double-buffered Jacobi sweep and returns the
// swapped handles — the steady-state workload whose fingerprint must
// stay stable across swaps.
func jacobiStep(e *Engine, cur, nxt *Handle, res *ScalarHandle) (*Handle, *Handle) {
	I := R(2, 9, 2, 9)
	nxt.Assign(I, Mul(Const(0.25),
		Add(Add(cur.At(-1, 0), cur.At(1, 0)), Add(cur.At(0, -1), cur.At(0, 1)))))
	res.MaxOf(I, Abs(Sub(nxt, cur)))
	return nxt, cur
}

// TestSteadyStateZeroRecompile is the tentpole's cache property: an
// iterative solver with double-buffer handle swaps compiles exactly
// once; every later Eval is a pure cache hit that neither
// canonicalizes (the memo names its key) nor builds a machine.
func TestSteadyStateZeroRecompile(t *testing.T) {
	e := NewEngine(Options{Level: core.C2F4S})
	R2 := R(1, 10, 1, 10)
	cur := e.Array("cur", R2)
	nxt := e.Array("nxt", R2)
	res := e.Scalar("res", 0)
	cur.Assign(nil, Index(1))
	if err := e.Eval(); err != nil {
		t.Fatal(err)
	}

	cur, nxt = jacobiStep(e, cur, nxt, res)
	if err := e.Eval(); err != nil {
		t.Fatal(err)
	}
	after1 := e.CacheStats()
	if after1.Misses == 0 {
		t.Fatalf("first sweep compiled nothing: %+v", after1)
	}
	memo1, builds1 := e.memoHits, e.machineBuilds

	const iters = 6
	for i := 0; i < iters; i++ {
		cur, nxt = jacobiStep(e, cur, nxt, res)
		if err := e.Eval(); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
	}
	d := e.CacheStats().Sub(after1)
	if d.Misses != 0 {
		t.Errorf("steady state recompiled: %d misses after warm-up", d.Misses)
	}
	if d.Hits < iters {
		t.Errorf("steady state hits = %d, want >= %d", d.Hits, iters)
	}
	if got := e.Stats().Evals; got != iters+2 {
		t.Errorf("Evals = %d, want %d", got, iters+2)
	}
	if got := e.memoHits - memo1; got != iters {
		t.Errorf("steady state took the memo path %d times in %d Evals", got, iters)
	}
	if got := e.machineBuilds - builds1; got != 0 {
		t.Errorf("steady state built %d machines in %d Evals instead of reusing the resident one", got, iters)
	}
	if _, err := res.Value(); err != nil {
		t.Fatal(err)
	}
}

// canonKey canonicalizes the first batch of an engine's pending
// operations, cut and escape-marked as an Eval would, under the given
// tie-break hash, and returns its cache key.
func canonKey(t *testing.T, e *Engine, hash func([]uint64) uint64) (ccache.Key, *canonBatch) {
	t.Helper()
	if e.err != nil {
		t.Fatalf("deferred error: %v", e.err)
	}
	batches, err := e.partition(e.pending)
	if err != nil {
		t.Fatal(err)
	}
	e.shape.of(batches[0], func(h *Handle) bool { return e.lastRead[h] > 0 })
	cb := canonicalize(batches[0], &e.shape, hash)
	e.pending = nil
	clear(e.lastRead)
	return cb.key(e.driverOptions()), cb
}

// statements is a canonical batch's AIR statements, one a line, for
// failure messages.
func statements(t *testing.T, cb *canonBatch) string {
	t.Helper()
	prog, err := cb.build()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, blk := range prog.AllBlocks() {
		for _, s := range blk.Stmts {
			b.WriteString("  " + s.String() + "\n")
		}
	}
	return b.String()
}

// TestFingerprintCanonicalization pins the equivalence classes the
// canonical key must induce: invariance under handle naming and buffer
// roles; sensitivity to shapes, regions, operators, offsets, temp-ness,
// and each detail TestCanonMemoExact holds the memo to (±0, aliasing, a
// temp target, an escape bit flipped by a later batch, writeln strings,
// MaxOf vs MinOf). It runs with the real tie-break hash and with every
// op's tie-break key colliding.
func TestFingerprintCanonicalization(t *testing.T) {
	base := func(e *Engine) {
		r := R(1, 8, 1, 8)
		a := e.Array("a", r)
		b := e.Array("b", r)
		b.Assign(nil, Add(a.At(-1, 0), Const(1)))
	}
	cases := []struct {
		name  string
		build func(e *Engine)
		equal bool
	}{
		{"renamed handles", func(e *Engine) {
			r := R(1, 8, 1, 8)
			x := e.Array("anything", r)
			y := e.Array("else", r)
			y.Assign(nil, Add(x.At(-1, 0), Const(1)))
		}, true},
		{"swapped buffer roles", func(e *Engine) {
			r := R(1, 8, 1, 8)
			b := e.Array("b", r)
			a := e.Array("a", r)
			a.Assign(nil, Add(b.At(-1, 0), Const(1)))
		}, true},
		{"different shape", func(e *Engine) {
			r := R(1, 9, 1, 8)
			a := e.Array("a", r)
			b := e.Array("b", r)
			b.Assign(nil, Add(a.At(-1, 0), Const(1)))
		}, false},
		{"different operator", func(e *Engine) {
			r := R(1, 8, 1, 8)
			a := e.Array("a", r)
			b := e.Array("b", r)
			b.Assign(nil, Sub(a.At(-1, 0), Const(1)))
		}, false},
		{"different offset", func(e *Engine) {
			r := R(1, 8, 1, 8)
			a := e.Array("a", r)
			b := e.Array("b", r)
			b.Assign(nil, Add(a.At(0, -1), Const(1)))
		}, false},
		{"different constant", func(e *Engine) {
			r := R(1, 8, 1, 8)
			a := e.Array("a", r)
			b := e.Array("b", r)
			b.Assign(nil, Add(a.At(-1, 0), Const(2)))
		}, false},
		{"narrower region", func(e *Engine) {
			r := R(1, 8, 1, 8)
			a := e.Array("a", r)
			b := e.Array("b", r)
			b.Assign(R(2, 7, 2, 7), Add(a.At(-1, 0), Const(1)))
		}, false},
		{"temp target", func(e *Engine) {
			r := R(1, 8, 1, 8)
			a := e.Array("a", r)
			b := e.Temp("b", r)
			b.Assign(nil, Add(a.At(-1, 0), Const(1)))
			e.Scalar("s", 0).Sum(r, b)
		}, false},
	}

	r := R(1, 4)
	quotient := func(c float64) func(*Engine) {
		return func(e *Engine) { e.Array("a", r).Assign(nil, Div(Const(1), Const(c))) }
	}
	increment := func(self bool) func(*Engine) {
		return func(e *Engine) {
			a, b := e.Array("a", r), e.Array("b", r)
			src := b
			if self {
				src = a
			}
			a.Assign(nil, Add(src, Const(1)))
		}
	}
	sumOf := func(temp bool) func(*Engine) {
		return func(e *Engine) {
			h := e.Array("h", r)
			if temp {
				h = e.Temp("h", r)
			}
			h.Assign(nil, Const(2))
			e.Scalar("s", 0).Sum(r, h)
		}
	}
	// Under MaxBatchOps 1 the first batch is t := 3 alone, and whether
	// the second reads t flips t's escape bit.
	escaping := func(read bool) func(*Engine) {
		return func(e *Engine) {
			tmp, b := e.Temp("t", r), e.Array("b", r)
			tmp.Assign(nil, Const(3))
			if read {
				b.Assign(nil, Mul(tmp, Const(2)))
			} else {
				b.Assign(nil, Const(5))
			}
		}
	}
	say := func(word string) func(*Engine) {
		return func(e *Engine) { e.Writeln(word, e.Scalar("s", 7)) }
	}
	extreme := func(max bool) func(*Engine) {
		return func(e *Engine) {
			a, s := e.Array("a", r), e.Scalar("s", 0)
			if max {
				s.MaxOf(r, a)
			} else {
				s.MinOf(r, a)
			}
		}
	}
	pairs := []struct {
		name string
		opt  Options
		x, y func(*Engine)
	}{
		{"+0 vs -0", Options{}, quotient(0), quotient(math.Copysign(0, -1))},
		{"a := f(a) vs a := f(b)", Options{}, increment(true), increment(false)},
		{"temp vs array target", Options{}, sumOf(true), sumOf(false)},
		{"escape bit", Options{MaxBatchOps: 1}, escaping(false), escaping(true)},
		{"writeln strings", Options{}, say("alpha"), say("beta")},
		{"MaxOf vs MinOf", Options{}, extreme(true), extreme(false)},
	}

	keyOf := func(opt Options, build func(*Engine), hash func([]uint64) uint64) (ccache.Key, *canonBatch) {
		e := NewEngine(opt)
		build(e)
		return canonKey(t, e, hash)
	}
	for i, hash := range []func([]uint64) uint64{hashWords, collideAll} {
		collide := i == 1
		want, wantCB := keyOf(Options{}, base, hash)
		for _, tc := range cases {
			got, gotCB := keyOf(Options{}, tc.build, hash)
			if (got == want) != tc.equal {
				t.Errorf("%s (colliding tie-break %v): key equality = %v, want %v\nbase:\n%sgot:\n%s",
					tc.name, collide, got == want, tc.equal, statements(t, wantCB), statements(t, gotCB))
			}
		}
		for _, p := range pairs {
			kx, cbx := keyOf(p.opt, p.x, hash)
			ky, cby := keyOf(p.opt, p.y, hash)
			if kx == ky {
				t.Errorf("%s (colliding tie-break %v): one canonical key for both\n%sand\n%s",
					p.name, collide, statements(t, cbx), statements(t, cby))
			}
		}
	}
}

// TestFingerprintIssueOrderInvariance permutes independent statements
// and checks the canonical key never moves. Dependent statements keep
// their dependence order by construction, so any recorded order of
// this program is a legal schedule.
func TestFingerprintIssueOrderInvariance(t *testing.T) {
	r := R(1, 6)
	build := func(perm []int) (ccache.Key, *canonBatch) {
		e := NewEngine(Options{})
		hs := make([]*Handle, 4)
		for i := range hs {
			hs[i] = e.Array("", r)
		}
		stmts := []func(){
			func() { hs[0].Assign(nil, Const(1)) },
			func() { hs[1].Assign(nil, Const(2)) },
			func() { hs[2].Assign(nil, Add(Index(1), Const(3))) },
			func() { hs[3].Assign(nil, Mul(Index(1), Const(4))) },
		}
		for _, i := range perm {
			stmts[i]()
		}
		return canonKey(t, e, hashWords)
	}
	want, wantCB := build([]int{0, 1, 2, 3})
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(4)
		if got, gotCB := build(perm); got != want {
			t.Fatalf("perm %v changed the canonical key:\nwant:\n%sgot:\n%s", perm, statements(t, wantCB), statements(t, gotCB))
		}
	}
}

// TestFingerprintDependenceOrder checks that canonicalization respects
// dependences: writing then reading differs from reading then writing
// (a RAW vs WAR program is a different program).
func TestFingerprintDependenceOrder(t *testing.T) {
	r := R(1, 6)
	e1 := NewEngine(Options{})
	a1, b1 := e1.Array("a", r), e1.Array("b", r)
	a1.Assign(nil, Const(1))
	b1.Assign(nil, a1)
	e2 := NewEngine(Options{})
	a2, b2 := e2.Array("a", r), e2.Array("b", r)
	b2.Assign(nil, a2)
	a2.Assign(nil, Const(1))
	k1, _ := canonKey(t, e1, hashWords)
	k2, _ := canonKey(t, e2, hashWords)
	if k1 == k2 {
		t.Fatal("RAW and WAR programs canonicalized to the same key")
	}
}

// TestBarrierSplitsBatches checks explicit barriers and MaxBatchOps
// both split an Eval into multiple batches, and that a Temp read
// across the split still carries its value (it escapes its batch).
func TestBarrierSplitsBatches(t *testing.T) {
	var out bytes.Buffer
	e := NewEngine(Options{Level: core.C2, Out: &out})
	r := R(1, 4)
	a := e.Array("a", r)
	s := e.Scalar("s", 0)
	a.Assign(nil, Const(2))
	e.Barrier()
	s.Sum(r, a)
	e.Writeln("s", s)
	if err := e.Eval(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Batches; got != 2 {
		t.Errorf("batches = %d, want 2", got)
	}
	if out.String() != "s 8\n" {
		t.Errorf("output = %q, want %q", out.String(), "s 8\n")
	}

	// Temp spanning a forced split: written in batch 1, read in batch 2.
	e2 := NewEngine(Options{Level: core.C2, MaxBatchOps: 1})
	tmp := e2.Temp("t", r)
	b := e2.Array("b", r)
	tmp.Assign(nil, Const(3))
	b.Assign(nil, Mul(tmp, Const(2)))
	if err := e2.Eval(); err != nil {
		t.Fatal(err)
	}
	if got := e2.Stats().Batches; got != 2 {
		t.Errorf("forced split batches = %d, want 2", got)
	}
	v, err := b.Value(1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("b[1] = %g, want 6 (temp value lost across batch split?)", v)
	}
}

// TestTempContracted checks the paper's payoff is visible through the
// library: a Temp confined to one batch is storage-eliminated at a
// contracting level, and the remark stream says so.
func TestTempContracted(t *testing.T) {
	e := NewEngine(Options{Level: core.C2})
	r := R(1, 16, 1, 16)
	a := e.Array("a", r)
	b := e.Array("b", r)
	tmp := e.Temp("t", r)
	a.Assign(nil, Index(1))
	tmp.Assign(nil, Mul(a, Const(2)))
	b.Assign(nil, Add(tmp, Const(1)))
	if err := e.Eval(); err != nil {
		t.Fatal(err)
	}
	contracted := false
	for _, rm := range e.Remarks() {
		if rm.Kind == remark.Contracted {
			contracted = true
		}
	}
	if !contracted {
		t.Errorf("no contracted remark at C2; remarks = %v", e.Remarks())
	}
	v, err := b.Value(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Errorf("b[3,5] = %g, want 7", v)
	}
}

// TestTempReadBeforeWrite checks the Temp contract: reading a Temp
// that nothing wrote this Eval is a deferred error, not a silent zero.
func TestTempReadBeforeWrite(t *testing.T) {
	e := NewEngine(Options{})
	r := R(1, 4)
	tmp := e.Temp("t", r)
	a := e.Array("a", r)
	a.Assign(nil, tmp)
	err := e.Eval()
	if err == nil || !strings.Contains(err.Error(), "read before any write") {
		t.Fatalf("err = %v, want temp read-before-write", err)
	}
}

// TestSetValuesRoundTrip checks the host-state sync points: seeded
// values feed the next batch, and results read back.
func TestSetValuesRoundTrip(t *testing.T) {
	e := NewEngine(Options{Level: core.C2F4S})
	r := R(1, 2, 1, 2)
	a := e.Array("a", r)
	s := e.Scalar("s", 0)
	if err := a.SetValues([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(10); err != nil {
		t.Fatal(err)
	}
	a.Assign(nil, Add(a, s))
	s.Sum(r, a)
	got, err := s.Value()
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("sum = %g, want 50", got)
	}
	vals, err := a.Values()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 12, 13, 14}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("a[%d] = %g, want %g", i, vals[i], want[i])
		}
	}
}

// TestErrorPaths sweeps the deferred-error surface: each abuse turns
// into a sticky error surfaced at the next sync point.
func TestErrorPaths(t *testing.T) {
	r := R(1, 4)
	cases := []struct {
		name string
		msg  string
		do   func(e *Engine)
	}{
		{"foreign handle", "different engine", func(e *Engine) {
			other := NewEngine(Options{})
			x := other.Array("x", r)
			e.Array("a", r).Assign(nil, x)
		}},
		{"rank mismatch", "rank", func(e *Engine) {
			a := e.Array("a", R(1, 4, 1, 4))
			b := e.Array("b", r)
			a.Assign(nil, b)
		}},
		{"region outside declared", "outside", func(e *Engine) {
			e.Array("a", r).Assign(R(0, 5), Const(1))
		}},
		{"unknown builtin", "unknown builtin", func(e *Engine) {
			a := e.Array("a", r)
			a.Assign(nil, Call("bogus", a))
		}},
		{"builtin arity", "argument", func(e *Engine) {
			a := e.Array("a", r)
			a.Assign(nil, Call("sqrt", a, a))
		}},
		{"array in writeln", "scalar context", func(e *Engine) {
			a := e.Array("a", r)
			e.Writeln("a =", a)
		}},
		{"writeln bad type", "unsupported type", func(e *Engine) {
			e.Writeln(struct{}{})
		}},
		{"offset arity", "components", func(e *Engine) {
			a := e.Array("a", r)
			a.Assign(nil, a.At(1, 2))
		}},
		{"nil array region", "region of rank", func(e *Engine) {
			e.Array("a", nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Options{})
			tc.do(e)
			err := e.Eval()
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want substring %q", err, tc.msg)
			}
			if e.Err() == nil {
				t.Fatal("error not sticky")
			}
			// Recording after the error is a silent no-op, not a panic.
			e.Scalar("s", 0).Sum(r, Const(1))
			if err2 := e.Eval(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("second Eval = %v, want the original error back", err2)
			}
		})
	}
}

// TestTempValuesRejected checks the observability contract of Temps.
func TestTempValuesRejected(t *testing.T) {
	e := NewEngine(Options{})
	tmp := e.Temp("t", R(1, 4))
	if _, err := tmp.Values(); err == nil {
		t.Error("Values on a temp succeeded")
	}
	if err := tmp.SetValues(make([]float64, 4)); err == nil {
		t.Error("SetValues on a temp succeeded")
	}
	if _, err := tmp.Value(1); err == nil {
		t.Error("Value on a temp succeeded")
	}
}

// TestRPanics pins R's programming-error contract.
func TestRPanics(t *testing.T) {
	for _, bounds := range [][]int{{}, {1}, {1, 2, 3}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("R(%v) did not panic", bounds)
				}
			}()
			R(bounds...)
		}()
	}
}

// TestWritelnOrderAcrossStatements checks the IO chain survives
// canonicalization: writelns interleaved with computation print in
// issue order, on the VM and through a native worker's reply frames,
// and so does a batch of writelns alone (a worker with an empty state
// mapping).
func TestWritelnOrderAcrossStatements(t *testing.T) {
	opts := []Options{{Level: core.C2F4S}}
	if backend.Available() {
		opts = append(opts, Options{Level: core.C2F4S, Backend: driver.BackendGo, ArtifactDir: t.TempDir()})
	}
	for _, opt := range opts {
		var out bytes.Buffer
		opt.Out = &out
		e := NewEngine(opt)
		defer e.Close()
		r := R(1, 3)
		a := e.Array("a", r)
		s := e.Scalar("s", 0)
		a.Assign(nil, Const(1))
		s.Sum(r, a)
		e.Writeln("first", s)
		a.Assign(nil, Const(2))
		s.Sum(r, a)
		e.Writeln("second", s)
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
		e.Writeln("third")
		e.Writeln()
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
		want := "first 3\nsecond 6\nthird\n\n"
		if out.String() != want {
			t.Errorf("%v: output = %q, want %q", opt.Backend, out.String(), want)
		}
	}
}

// TestEvalPanicIsAnError: a compiler panic costs one Eval an error that
// names the batch, not the process a crash nor the batch shape a hang:
// the same operations recorded again compile afresh.
func TestEvalPanicIsAnError(t *testing.T) {
	e := NewEngine(Options{Level: core.C2F4S})
	a := e.Array("a", R(1, 8))
	panicked := false
	e.compileHook = func() {
		if !panicked {
			panicked = true
			panic("compiler bug")
		}
	}
	a.Assign(nil, Index(1))
	err := e.Eval()
	var pe *flight.PanicError
	if !errors.As(err, &pe) || pe.Value != "compiler bug" || !strings.Contains(err.Error(), "lazy: batch ") {
		t.Fatalf("Eval over a panicking compile returned %v, want an error naming the batch and wrapping the panic", err)
	}
	if !strings.Contains(string(pe.Stack), "TestEvalPanicIsAnError") {
		t.Errorf("the panic's stack does not reach the panicking frame:\n%s", pe.Stack)
	}
	if e.Err() != nil {
		t.Errorf("a panic left the engine with a sticky error: %v", e.Err())
	}
	if len(e.resident) != 0 || len(e.memo.buckets) != 0 {
		t.Errorf("the panicking Eval left %d resident records and %d memo buckets", len(e.resident), len(e.memo.buckets))
	}

	done := make(chan error, 1)
	go func() {
		a.Assign(nil, Index(1))
		done <- e.Eval()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Eval of the same shape after the panic: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Eval of the same shape after the panic hangs")
	}
	if st := e.CacheStats(); st.Misses != 2 || st.Entries != 1 {
		t.Errorf("cache after panic + retry: %+v, want two computes and one entry", st)
	}
	if v, err := a.Values(); err != nil || v[7] != 8 {
		t.Errorf("values after the retry: %v, %v", v, err)
	}

	// A panic inside the run itself (the machine turns it into an
	// error) keeps no machine resident either.
	w := NewEngine(Options{Out: panicWriter{}})
	w.Writeln("boom")
	if err := w.Eval(); err == nil {
		t.Fatal("Eval whose writeln panics succeeded")
	}
	for k, r := range w.resident {
		if r.vm != nil {
			t.Errorf("the failed run left its machine resident for %s", k)
		}
	}
}

type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("writer") }
