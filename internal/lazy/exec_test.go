package lazy

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/sema"
)

// residentArrayOf returns the resident machine's or worker's record of
// h's storage in the engine's one cached compilation that binds it.
func residentArrayOf(t *testing.T, e *Engine, h *Handle) residentArray {
	t.Helper()
	if len(e.resident) != 1 {
		t.Fatalf("%d resident records, want 1", len(e.resident))
	}
	for _, r := range e.resident {
		if r.x == nil {
			continue
		}
		for _, a := range r.x.arrays {
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
// the native backend. Pair k is the first column of block k of two rows
// and w columns, the rest of the block the reduction's identity, and
// the 81 blocks make a nest both engines split (absint.Result.Splits):
// at GOMAXPROCS 2 the two values of a pair fall in different chunks,
// whose accumulators the engine folds after the other chunk ends; at
// GOMAXPROCS 1 the nest runs as one chunk. Every arm equals the first,
// the VM at GOMAXPROCS 1, bit for bit. The VM's arms set
// runtime.GOMAXPROCS, which an in-process machine reads; a worker reads
// its environment. The one-shot arms run the same reductions as a ZA
// program's one-shot native emission (oneShotSpecials), which splits
// the nest as a worker does.
func TestMaxMinOfSpecialValues(t *testing.T) {
	s := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001), 2, -2}
	n := len(s)
	w := absint.SplitWork/(2*n*n) + 1
	cols := n * n * w
	lo, hi := make([]float64, 2*cols), make([]float64, 2*cols) // max's grid, min's
	for i := range lo {
		lo[i], hi[i] = math.Inf(-1), math.Inf(1)
	}
	for j, a := range s {
		for i, b := range s {
			k := (n*j + i) * w
			lo[k], lo[cols+k], hi[k], hi[cols+k] = a, b, a, b
		}
	}
	type arm struct {
		opt   Options
		procs string // the native worker's GOMAXPROCS
		vm    int    // the VM's runtime.GOMAXPROCS
	}
	arms := []arm{{opt: Options{Level: core.C2F4S}, vm: 1}, {opt: Options{Level: core.C2F4S}, vm: 2}}
	if backend.Available() {
		for _, procs := range []string{"1", "2"} {
			arms = append(arms, arm{opt: Options{Level: core.C2F4S, Backend: driver.BackendGo, ArtifactDir: t.TempDir()}, procs: procs})
		}
	}
	var vm []float64 // the first arm's results, max then min of each pair
	for _, a := range arms {
		name := fmt.Sprintf("%v GOMAXPROCS=%s", a.opt.Backend, a.procs)
		if a.procs != "" {
			t.Setenv("GOMAXPROCS", a.procs)
		} else {
			name = fmt.Sprintf("%v runtime.GOMAXPROCS=%d", a.opt.Backend, a.vm)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(a.vm))
		}
		e := NewEngine(a.opt)
		defer e.Close()
		split := true // every nest over rows 1..2 is threaded
		e.emitHook = func(goSrc string) string {
			split = split && strings.Contains(goSrc, "zaC_run(") && !strings.Contains(goSrc, "i1 <= 2;")
			return goSrc
		}
		pl, ph := e.Array("lo", R(1, 2, 1, cols)), e.Array("hi", R(1, 2, 1, cols))
		if err := pl.SetValues(lo); err != nil {
			t.Fatal(err)
		}
		if err := ph.SetValues(hi); err != nil {
			t.Fatal(err)
		}
		mx, mn := make([]*ScalarHandle, n*n), make([]*ScalarHandle, n*n)
		for k := range mx {
			mx[k], mn[k] = e.Scalar("", 0), e.Scalar("", 0)
			mx[k].MaxOf(R(1, 2, k*w+1, (k+1)*w), pl)
			mn[k].MinOf(R(1, 2, k*w+1, (k+1)*w), ph)
		}
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
		if a.procs != "" && !split {
			t.Fatalf("%s: the worker runs a nest over rows 1..2 on one goroutine", name)
		}
		if a.procs == "" && !vmSplits(e, 1, 2) {
			t.Fatalf("%s: the machine runs a nest over rows 1..2 unsplit", name)
		}
		check := func(op string, got, want, a, b float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: %s<< (%#x, %#x) = %#x, want %#x", name, op,
					math.Float64bits(a), math.Float64bits(b), math.Float64bits(got), math.Float64bits(want))
			}
		}
		var got []float64
		for j, a := range s {
			for i, b := range s {
				k := n*j + i
				check("max", mx[k].val, math.Max(math.Max(math.Inf(-1), a), b), a, b)
				check("min", mn[k].val, math.Min(math.Min(math.Inf(1), a), b), a, b)
				got = append(got, mx[k].val, mn[k].val)
			}
		}
		if vm == nil {
			vm = got
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(vm[i]) {
				t.Errorf("%s: result %d is %#x, the VM's at GOMAXPROCS 1 %#x", name, i, math.Float64bits(got[i]), math.Float64bits(vm[i]))
			}
		}
	}
	if !backend.Available() {
		return
	}
	for procs, got := range oneShotSpecials(t, lo, hi, n*n, w) {
		for i := range vm {
			if math.Float64bits(got[i]) != math.Float64bits(vm[i]) {
				t.Errorf("one-shot GOMAXPROCS=%d: result %d is %#x, the VM's at GOMAXPROCS 1 %#x", procs+1, i, math.Float64bits(got[i]), math.Float64bits(vm[i]))
			}
		}
	}
}

// oneShotSpecials runs TestMaxMinOfSpecialValues' reductions as the
// one-shot native program of a ZA program, at GOMAXPROCS 1 and 2: pair
// k's max<< over block k of lo and min<< over block k of hi. A one-shot
// program's arrays start at zero, so the emission gets an init function
// that writes the grids into them (lo's and hi's identity, then every
// other value, by its bits), and main prints the results' bits after
// za_main, max then min of each pair.
func oneShotSpecials(t *testing.T, lo, hi []float64, pairs, w int) [2][]float64 {
	t.Helper()
	var src strings.Builder
	fmt.Fprintf(&src, "program specials;\nregion R = [1..2, 1..%d];\n", len(lo)/2)
	for k := range pairs {
		fmt.Fprintf(&src, "region B%d = [1..2, %d..%d];\n", k, k*w+1, (k+1)*w)
	}
	src.WriteString("var lo : [R] double;\nvar hi : [R] double;\n")
	var results []string
	for k := range pairs {
		fmt.Fprintf(&src, "var mx%d : double;\nvar mn%d : double;\n", k, k)
		results = append(results, fmt.Sprintf("mx%d", k), fmt.Sprintf("mn%d", k))
	}
	src.WriteString("proc main()\nbegin\n")
	for k := range pairs {
		fmt.Fprintf(&src, "  mx%d := max<< [B%d] lo;\n  mn%d := min<< [B%d] hi;\n", k, k, k, k)
	}
	src.WriteString("  writeln(" + strings.Join(results, ", ") + ");\nend;\n")
	c, err := driver.Compile(src.String(), driver.Options{Level: core.C2F4S})
	if err != nil {
		t.Fatal(err)
	}
	goSrc, err := gogen.EmitBounds(c.LIR, c.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(goSrc, "zaC_run(") || strings.Contains(goSrc, "i1 <= 2;") {
		t.Fatal("one-shot: the program runs a nest over rows 1..2 on one goroutine")
	}

	var seed strings.Builder
	seed.WriteString("func init() {\n")
	for _, a := range []struct {
		name     string
		v        []float64
		identity float64
	}{{"lo", lo, math.Inf(-1)}, {"hi", hi, math.Inf(1)}} {
		if n := c.LIR.Source.Arrays[a.name].Alloc.Size(); n != len(a.v) {
			t.Fatalf("one-shot: %s has %d elements of storage, want %d", a.name, n, len(a.v))
		}
		fmt.Fprintf(&seed, "\tfor i := range za_%s {\n\t\tza_%s[i] = zaT_math.Float64frombits(%#x)\n\t}\n", a.name, a.name, math.Float64bits(a.identity))
		for i, v := range a.v {
			if math.Float64bits(v) != math.Float64bits(a.identity) {
				fmt.Fprintf(&seed, "\tza_%s[%d] = zaT_math.Float64frombits(%#x)\n", a.name, i, math.Float64bits(v))
			}
		}
	}
	seed.WriteString("}\n\nfunc zaT_dump() {\n")
	for _, r := range results {
		fmt.Fprintf(&seed, "\tfmt.Println(zaT_math.Float64bits(za_%s))\n", r)
	}
	seed.WriteString("}\n")
	for _, edit := range [][2]string{
		{"import (\n", "import (\n\tzaT_math \"math\"\n"},
		{"\tza_main()\n", "\tza_main()\n\tzaT_dump()\n"},
	} {
		if strings.Count(goSrc, edit[0]) != 1 {
			t.Fatalf("one-shot: the emission has no single %q", edit[0])
		}
		goSrc = strings.Replace(goSrc, edit[0], edit[1], 1)
	}
	goSrc += "\n" + seed.String()

	st, err := backend.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art, err := st.Build(context.Background(), goSrc)
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]float64
	for procs := range got {
		t.Setenv("GOMAXPROCS", strconv.Itoa(procs+1))
		var out bytes.Buffer
		if _, err := art.Run(context.Background(), &out); err != nil {
			t.Fatalf("one-shot GOMAXPROCS=%d: %v", procs+1, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 1+len(results) {
			t.Fatalf("one-shot GOMAXPROCS=%d: %d lines of output, want %d", procs+1, len(lines), 1+len(results))
		}
		for _, l := range lines[1:] {
			b, err := strconv.ParseUint(l, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			got[procs] = append(got[procs], math.Float64frombits(b))
		}
	}
	return got
}

// vmSplits reports whether the engine's cached compilations have a nest
// over rows lo..hi and the split rule accepts every such nest: a
// machine built at GOMAXPROCS > 1 runs them in chunks.
func vmSplits(e *Engine, lo, hi int) bool {
	some := false
	for key := range e.resident {
		entry, ok := e.cache.Peek(key)
		if !ok {
			continue
		}
		for _, pr := range entry.Comp.LIR.Procs {
			for _, n := range lir.Nests(pr.Body) {
				if n.Region.Lo[0] != lo || n.Region.Hi[0] != hi {
					continue
				}
				if !entry.Comp.Bounds.Splits(entry.Comp.LIR, n) {
					return false
				}
				some = true
			}
		}
	}
	return some
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
	if e.starts != 1 {
		t.Errorf("%d machines built, want 1", e.starts)
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

// armedWriter is an Out that panics while armed and otherwise keeps what
// the program prints.
type armedWriter struct {
	armed bool
	out   bytes.Buffer
}

func (w *armedWriter) Write(p []byte) (int, error) {
	if w.armed {
		panic("writer")
	}
	return w.out.Write(p)
}

// TestBoundHandlesSurviveFailedRun: one batch runs on the storage of a
// handle it only reads, swaps in one it writes, copies one read a cell
// past its region (so its allocation has a halo) and keeps a Temp, and
// its writeln, between two nests, panics. The failed Eval leaves every
// host value as it was and no machine or worker resident; the same batch
// run again with the writer disarmed prints and computes what an engine
// that never failed does. The links and the outcome are the same on the
// VM and on a worker.
func TestBoundHandlesSurviveFailedRun(t *testing.T) {
	opts := []Options{{Level: core.Baseline}, {Level: core.C2F4S}}
	if backend.Available() {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4S} {
			opts = append(opts, Options{Level: lvl, Backend: driver.BackendGo, ArtifactDir: t.TempDir()})
		}
	}
	for _, opt := range opts {
		lvl := fmt.Sprintf("%v %v", opt.Backend, opt.Level)
		setup := func(w *armedWriter) (*Engine, []*Handle, func()) {
			o := opt
			o.Out = w
			e := NewEngine(o)
			t.Cleanup(func() { e.Close() })
			ro, wr, halo := e.Array("ro", R(1, 8)), e.Array("wr", R(1, 8)), e.Array("halo", R(1, 8))
			hs := []*Handle{ro, wr, halo}
			for i, h := range hs {
				v := make([]float64, 8)
				for j := range v {
					v[j] = float64(10*i + j + 1)
				}
				if err := h.SetValues(v); err != nil {
					t.Fatal(err)
				}
			}
			s := e.Scalar("s", 0)
			issue := func() {
				tmp := e.Temp("tmp", R(1, 8))
				tmp.Assign(nil, Add(ro, halo.At(1)))
				wr.Assign(R(2, 7), Mul(tmp, Const(2)))
				s.Sum(R(1, 8), wr)
				e.Writeln("s =", s) // reads s after the first sum and before the second writes it
				s.Sum(R(1, 8), halo)
				halo.Assign(R(2, 5), Add(wr, s))
			}
			return e, hs, issue
		}

		ref := &armedWriter{}
		re, rhs, rissue := setup(ref)
		rissue()
		if err := re.Eval(); err != nil {
			t.Fatal(err)
		}
		wantOut := ref.out.String()
		var wantVals [][]float64
		for _, h := range rhs {
			wantVals = append(wantVals, slices.Clone(h.data))
		}
		rissue() // a memo hit, which is what residentArrayOf reads
		if err := re.Eval(); err != nil {
			t.Fatal(err)
		}
		for i, want := range []link{bound, swapped, copied} {
			if a := residentArrayOf(t, re, rhs[i]); a.link != want {
				t.Errorf("%v: %s's storage has link %d, want %d", lvl, rhs[i].name, a.link, want)
			}
		}

		w := &armedWriter{armed: true}
		e, hs, issue := setup(w)
		var before [][]float64
		for _, h := range hs {
			before = append(before, slices.Clone(h.data))
		}
		issue()
		if err := e.Eval(); err == nil {
			t.Fatalf("%v: Eval whose writeln panics succeeded", lvl)
		}
		for i, h := range hs {
			if !slices.Equal(h.data, before[i]) {
				t.Errorf("%v: the failed run changed %s: %v, was %v", lvl, h.name, h.data, before[i])
			}
		}
		for _, r := range e.resident {
			if r.x != nil {
				t.Errorf("%v: the failed run left its executor resident", lvl)
			}
		}

		// The run's error is sticky (TestNativeDeadlineRetiresWorker).
		// Clearing it shows that the engine kept nothing of the failed run.
		e.err, w.armed = nil, false
		issue()
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
		if w.out.String() != wantOut {
			t.Errorf("%v: printed %q after the failed run, want %q", lvl, w.out.String(), wantOut)
		}
		for i, h := range hs {
			if !slices.Equal(h.data, wantVals[i]) {
				t.Errorf("%v: %s = %v after the failed run, want %v", lvl, h.name, h.data, wantVals[i])
			}
		}
	}
}

// TestCopiedBytesPerEval pins Stats.CopiedBytes on a steady-state n=64
// Jacobi sweep, one figure for both executors: nxt's frame only. cur
// runs on its handle's storage (on a worker, the pool slab the last
// sweep left it holding), and nxt's interior is written before it is
// read and swapped in.
func TestCopiedBytesPerEval(t *testing.T) {
	const n, sweeps = 64, 4
	want := int64(8 * (n*n - (n-2)*(n-2)))
	for _, native := range []bool{false, true} {
		t.Run(fmt.Sprintf("native=%v", native), func(t *testing.T) {
			opt := Options{Level: core.C2F4S}
			var e *Engine
			if native {
				e = nativeEngine(t, opt)
			} else {
				e = NewEngine(opt)
			}
			cur, nxt := e.Array("cur", R(1, n, 1, n)), e.Array("nxt", R(1, n, 1, n))
			res := e.Scalar("res", 0)
			cur.Assign(nil, Mul(Index(1), Index(2)))
			for i := 0; i < 3; i++ {
				cur, nxt = jacobiStep(e, cur, nxt, res)
				if err := e.Eval(); err != nil {
					t.Fatal(err)
				}
			}
			before := e.Stats().CopiedBytes
			for i := 0; i < sweeps; i++ {
				cur, nxt = jacobiStep(e, cur, nxt, res)
				if err := e.Eval(); err != nil {
					t.Fatal(err)
				}
			}
			if got := (e.Stats().CopiedBytes - before) / sweeps; got != want {
				t.Errorf("%d bytes copied per Eval, want %d", got, want)
			}
		})
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
// of a handle the batch only reads. Its storage is seeded (on the VM,
// bound to the host slice) before the run, the program overwrites its
// first host value while printing, and
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
			if r.x != nil {
				t.Errorf("%v: the failed run left its executor resident", opt.Backend)
			}
		}
	}
}
