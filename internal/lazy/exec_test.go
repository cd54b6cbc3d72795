package lazy

import (
	"math"
	"slices"
	"testing"

	"repro/internal/air"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/sema"
)

// residentArrayOf returns the resident-machine record of h's storage in
// the engine's one cached compilation that binds it.
func residentArrayOf(t *testing.T, e *Engine, h *Handle) residentArray {
	t.Helper()
	if len(e.resident) != 1 {
		t.Fatalf("%d resident records, want 1", len(e.resident))
	}
	for _, r := range e.resident {
		for _, a := range r.vm.arrays {
			if a.handle >= 0 && e.bound.handles[a.handle] == h {
				return a
			}
		}
	}
	t.Fatalf("no resident storage binds %s", h.name)
	return residentArray{}
}

// TestMaxMinOfSpecialValues: MaxOf and MinOf over every ordered pair of
// ±0, three NaN bit patterns (math.NaN(), the negative quiet NaN amd64
// divisions make, a signalling one), ±Inf and a tie are bit-identical to
// a left fold of math.Max and math.Min from the identity, on the VM and
// the native backend.
func TestMaxMinOfSpecialValues(t *testing.T) {
	s := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001), 2, -2}
	n := len(s)
	pairs := make([]float64, 2*n*n)
	for j, a := range s {
		for i, b := range s {
			pairs[n*j+i], pairs[n*n+n*j+i] = a, b
		}
	}
	opts := []Options{{Level: core.C2F4S}}
	if backend.Available() {
		opts = append(opts, Options{Level: core.C2F4S, Backend: driver.BackendGo, ArtifactDir: t.TempDir()})
	}
	for _, opt := range opts {
		e := NewEngine(opt)
		defer e.Close()
		p := e.Array("p", R(1, 2, 1, n*n))
		if err := p.SetValues(pairs); err != nil {
			t.Fatal(err)
		}
		mx, mn := make([]*ScalarHandle, n*n), make([]*ScalarHandle, n*n)
		for k := range mx {
			mx[k], mn[k] = e.Scalar("", 0), e.Scalar("", 0)
			mx[k].MaxOf(R(1, 2, k+1, k+1), p)
			mn[k].MinOf(R(1, 2, k+1, k+1), p)
		}
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
		check := func(op string, got, want, a, b float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v: %s<< (%#x, %#x) = %#x, want %#x", opt.Backend, op,
					math.Float64bits(a), math.Float64bits(b), math.Float64bits(got), math.Float64bits(want))
			}
		}
		for j, a := range s {
			for i, b := range s {
				k := n*j + i
				check("max", mx[k].val, math.Max(math.Max(math.Inf(-1), a), b), a, b)
				check("min", mn[k].val, math.Min(math.Min(math.Inf(1), a), b), a, b)
			}
		}
	}
}

// TestDeadInFrameKeepsHostValues: a handle whose first statement
// assigns an interior rectangle without reading the handle is seeded
// over its frame only, and the frame still reads its host values — new
// ones every Eval, through one resident machine.
func TestDeadInFrameKeepsHostValues(t *testing.T) {
	e := NewEngine(Options{Level: core.C2F4S})
	full, inner := R(1, 6, 1, 7), R(2, 5, 3, 6)
	a := e.Array("a", full)
	k := e.Scalar("k", 0)
	for it := 0; it < 3; it++ {
		host := make([]float64, full.Size())
		for i := range host {
			host[i] = float64(100*it + i)
		}
		if err := a.SetValues(host); err != nil {
			t.Fatal(err)
		}
		if err := k.Set(float64(-it - 1)); err != nil {
			t.Fatal(err)
		}
		a.Assign(inner, k)
		got, err := a.Values()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			want := host[i]
			if in(full, inner, i) {
				want = float64(-it - 1)
			}
			if v != want {
				t.Fatalf("Eval %d: a[%d] = %v, want %v", it+1, i, v, want)
			}
		}
	}
	if r := residentArrayOf(t, e, a); r.deadIn == nil || !r.deadIn.Equal(inner) || !r.written {
		t.Errorf("a's storage: written %v, dead-in %v; want written over %v", r.written, r.deadIn, inner)
	}
	if e.machineBuilds != 1 {
		t.Errorf("%d machines built, want 1", e.machineBuilds)
	}
}

// TestUsesOf reads arrayUse off hand-built LIR: a guarded first store's
// dead-in rectangle is its guard; a preload, a read earlier in the nest
// or in an earlier nest leaves none; a reduction or a register store
// writes no array; a node a batch does not compile to (a loop) touches
// and writes every array.
func TestUsesOf(t *testing.T) {
	r8, r27 := R(1, 8), R(2, 7)
	ref := func(name string) air.Expr { return &air.RefExpr{Ref: air.Ref{Array: name, Off: air.Zero(1)}} }
	one := &air.ConstExpr{Val: 1}
	arrays := map[string]*air.ArrayInfo{}
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		arrays[n] = &air.ArrayInfo{Name: n, Declared: r8, Alloc: r8}
	}
	nests := []lir.Node{
		&lir.Nest{Region: r8, Preloads: []lir.Preload{{Var: "p", Array: "c", Off: air.Zero(1)}}, Body: []*lir.NestStmt{
			{LHS: "a", Guard: r27, RHS: ref("b")},
			{LHS: "c", RHS: one},
			{IsReduce: true, Target: "s", RHS: ref("d")},
			{LHS: "e", Contracted: true, RHS: ref("a")},
		}},
		&lir.Nest{Region: r8, Body: []*lir.NestStmt{{LHS: "b", RHS: one}, {LHS: "d", RHS: one}, {LHS: "f", RHS: ref("f")}}},
		&lir.Writeln{},
	}
	for _, tc := range []struct {
		name string
		body []lir.Node
		want map[string]arrayUse
	}{
		{"nests", nests, map[string]arrayUse{"a": {written: true, deadIn: r27}, "b": {written: true},
			"c": {written: true}, "d": {written: true}, "f": {written: true}}},
		{"after a loop", append([]lir.Node{&lir.Loop{}}, nests...), map[string]arrayUse{"a": {written: true},
			"b": {written: true}, "c": {written: true}, "d": {written: true}, "e": {written: true}, "f": {written: true}}},
	} {
		got := usesOf(&lir.Program{Source: &air.Program{Arrays: arrays}, Main: &lir.Proc{Body: tc.body}})
		for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
			g, w := got[n], tc.want[n]
			if g.written != w.written || (g.deadIn == nil) != (w.deadIn == nil) || g.deadIn != nil && !g.deadIn.Equal(w.deadIn) {
				t.Errorf("%s: %s written %v dead-in %v, want written %v dead-in %v", tc.name, n, g.written, g.deadIn, w.written, w.deadIn)
			}
		}
	}
}

// in reports whether row-major position i of full lies in r.
func in(full, r *sema.Region, i int) bool {
	for d := full.Rank() - 1; d >= 0; d-- {
		x := full.Lo[d] + i%full.Extent(d)
		if x < r.Lo[d] || x > r.Hi[d] {
			return false
		}
		i /= full.Extent(d)
	}
	return true
}

// TestReadBeforeWriteGetsFullSeed: a handle the batch reads before it
// writes it gets its whole declared rectangle seeded on every Eval of a
// resident machine, the rectangle it later writes included.
func TestReadBeforeWriteGetsFullSeed(t *testing.T) {
	e := NewEngine(Options{Level: core.C2F4S})
	a := e.Array("a", R(1, 8))
	s := e.Scalar("s", 0)
	for it := 0; it < 3; it++ {
		host := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		for i := range host {
			host[i] *= float64(it + 1)
		}
		if err := a.SetValues(host); err != nil {
			t.Fatal(err)
		}
		s.Sum(R(1, 8), a)
		a.Assign(R(2, 7), Const(0))
		got, err := s.Value()
		if err != nil {
			t.Fatal(err)
		}
		if want := 36 * float64(it+1); got != want {
			t.Errorf("Eval %d: sum = %v, want %v", it+1, got, want)
		}
		vals, err := a.Values()
		if err != nil {
			t.Fatal(err)
		}
		if want := []float64{host[0], 0, 0, 0, 0, 0, 0, host[7]}; !slices.Equal(vals, want) {
			t.Errorf("Eval %d: a = %v, want %v", it+1, vals, want)
		}
	}
	if r := residentArrayOf(t, e, a); r.deadIn != nil {
		t.Errorf("a is read before it is written, yet its dead-in rectangle is %v", r.deadIn)
	}
}

// hostWriter is an Out that, when the program prints, overwrites the
// first host value of a handle: after the run that value is whatever
// the engine left there.
type hostWriter struct{ h *Handle }

func (w hostWriter) Write(p []byte) (int, error) {
	w.h.data[0] = 42
	return len(p), nil
}

// TestUnwrittenHandleNotReadBack: the engine never writes the host data
// of a handle the batch only reads. Its storage is seeded before the
// run, the program overwrites its first host value while printing, and
// the value survives the Eval; the handle the batch does write is read
// back. A run that fails leaves the host data of both untouched.
func TestUnwrittenHandleNotReadBack(t *testing.T) {
	opts := []Options{{Level: core.Baseline}, {Level: core.C2F4S}}
	if backend.Available() {
		opts = append(opts, Options{Level: core.C2F4S, Backend: driver.BackendGo, ArtifactDir: t.TempDir()})
	}
	for _, opt := range opts {
		w := &hostWriter{}
		opt.Out = w
		e := NewEngine(opt)
		defer e.Close()
		src, dst := e.Array("src", R(1, 4)), e.Array("dst", R(1, 4))
		w.h = src
		if err := src.SetValues([]float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		for it := 0; it < 2; it++ {
			dst.Assign(nil, Mul(src, Const(2)))
			e.Writeln("printed")
			if err := e.Eval(); err != nil {
				t.Fatal(err)
			}
			if got := src.data[0]; got != 42 {
				t.Errorf("%v Eval %d: src[1] = %v after the run, want the 42 the program left", opt.Backend, it+1, got)
			}
			want := []float64{2, 4, 6, 8}
			if it == 1 {
				want[0] = 84
			}
			if got := dst.data; !slices.Equal(got, want) {
				t.Errorf("%v Eval %d: dst = %v, want %v", opt.Backend, it+1, got, want)
			}
		}
	}

	for _, opt := range opts[1:] {
		opt.Out = panicWriter{}
		e := NewEngine(opt)
		src, dst := e.Array("src", R(1, 4)), e.Array("dst", R(1, 4))
		if err := src.SetValues([]float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		dst.Assign(nil, Mul(src, Const(2)))
		e.Writeln("boom")
		if err := e.Eval(); err == nil {
			t.Fatalf("%v: Eval whose writeln panics succeeded", opt.Backend)
		}
		if !slices.Equal(src.data, []float64{1, 2, 3, 4}) || !slices.Equal(dst.hostData(), []float64{0, 0, 0, 0}) {
			t.Errorf("%v: a failed run changed host data: src %v, dst %v", opt.Backend, src.data, dst.hostData())
		}
		for _, r := range e.resident {
			if r.vm != nil || r.native != nil {
				t.Errorf("%v: the failed run left its executor resident", opt.Backend)
			}
		}
	}
}
