package vm_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/driver"
	"repro/internal/kernel"
	"repro/internal/lir"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/vm"
)

// compile builds LIR for a source at the given level.
func compile(t *testing.T, src string, lvl core.Level) *lir.Program {
	t.Helper()
	c, err := driver.Compile(src, driver.Options{Level: lvl})
	if err != nil {
		t.Fatal(err)
	}
	return c.LIR
}

// TestArithmeticOracle cross-checks the VM against a straight-Go
// computation of the same recurrence.
func TestArithmeticOracle(t *testing.T) {
	src := `
program oracle;
region R = [1..10];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 * 1.5;
  [R] B := sqrt(A) + A * A - A / 2.0;
  s := +<< [R] B;
  writeln(s);
end;
`
	m, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 1; i <= 10; i++ {
		a := float64(float64(i) * 1.5)
		want += math.Sqrt(a) + float64(a*a) - float64(a/2)
	}
	got, _ := m.Scalar("s")
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("s = %v, want %v", got, want)
	}
}

func TestOffsetsAndHalo(t *testing.T) {
	src := `
program halo;
region R = [1..4, 1..4];
var A, B : [R] double;
proc main()
begin
  [R] A := index1 * 10.0 + index2;
  [R] B := A@(-1, 1);
end;
`
	m, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// B[2][2] = A[1][3] = 13.
	if v, _ := m.At("B", 2, 2); v != 13 {
		t.Errorf("B[2,2] = %v, want 13", v)
	}
	// B[1][1] = A[0][2], which is halo (zero).
	if v, _ := m.At("B", 1, 1); v != 0 {
		t.Errorf("B[1,1] = %v, want 0 (halo)", v)
	}
}

func TestBuiltinSemantics(t *testing.T) {
	src := `
program builtins;
var a, b, c, d, e, f : double;
proc main()
begin
  a := min(3.0, -2.0);
  b := max(3.0, -2.0);
  c := abs(-7.5);
  d := pow(2.0, 10.0);
  e := floor(3.7);
  f := sign(-42.0);
  writeln(a, b, c, d, e, f);
end;
`
	var out bytes.Buffer
	if _, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{Out: &out}); err != nil {
		t.Fatal(err)
	}
	want := "-2 3 7.5 1024 3 -1"
	if strings.TrimSpace(out.String()) != want {
		t.Errorf("output %q, want %q", out.String(), want)
	}
}

func TestBooleanOperators(t *testing.T) {
	src := `
program booleans;
var t, f, r1, r2, r3 : boolean;
proc main()
begin
  t := true;
  f := false;
  r1 := t & !f;
  r2 := f | t;
  r3 := (1 < 2) & (2.0 >= 2.0) & (3 != 4);
  if r1 & r2 & r3 then
    writeln("all-true");
  end;
end;
`
	var out bytes.Buffer
	if _, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{Out: &out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "all-true") {
		t.Errorf("output %q", out.String())
	}
}

func TestDownLoop(t *testing.T) {
	src := `
program countdown;
var s : integer;
proc main()
begin
  s := 0;
  for i := 5 downto 2 do
    s := s * 10 + i;
  end;
  writeln(s);
end;
`
	var out bytes.Buffer
	if _, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{Out: &out}); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "5432" {
		t.Errorf("output %q, want 5432", out.String())
	}
}

func TestStepBudget(t *testing.T) {
	src := `
program infinite;
var x : double;
proc main()
begin
  x := 1.0;
  while x > 0.0 do
    x := x + 1.0;
  end;
end;
`
	_, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("runaway loop not caught: %v", err)
	}
}

func TestReductionIdentities(t *testing.T) {
	// Reductions over a region always reinitialize their target.
	src := `
program redid;
region R = [1..3];
var A : [R] double;
var s, p, mx, mn : double;
proc main()
begin
  [R] A := index1 * 1.0;
  for it := 1 to 2 do
    s := +<< [R] A;
    p := *<< [R] A;
    mx := max<< [R] A;
    mn := min<< [R] A;
  end;
  writeln(s, p, mx, mn);
end;
`
	var out bytes.Buffer
	if _, _, err := vm.Run(compile(t, src, core.C2), vm.Options{Out: &out}); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "6 6 3 1" {
		t.Errorf("output %q, want 6 6 3 1", out.String())
	}
}

// traceRecorder counts tracer callbacks.
type traceRecorder struct {
	reads, writes, flops int64
	comms, reduces       int
}

func (r *traceRecorder) Access(addr int64, write bool) {
	if write {
		r.writes++
	} else {
		r.reads++
	}
}
func (r *traceRecorder) Flops(n int64) { r.flops += n }
func (r *traceRecorder) Comm(string, air.Offset, int, air.CommPhase, int) {
	r.comms++
}
func (r *traceRecorder) Reduce() { r.reduces++ }

func TestTraceCounts(t *testing.T) {
	src := `
program traced;
region R = [1..8, 1..8];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := 1.0;
  [R] B := A + A;
  s := +<< [R] B;
end;
`
	rec := &traceRecorder{}
	if _, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	// Writes: A (64) + B (64). Reads: A twice (128) + B in reduce (64).
	if rec.writes != 128 {
		t.Errorf("writes = %d, want 128", rec.writes)
	}
	if rec.reads != 192 {
		t.Errorf("reads = %d, want 192", rec.reads)
	}
	if rec.reduces != 1 {
		t.Errorf("reduces = %d, want 1", rec.reduces)
	}
	if rec.flops == 0 {
		t.Error("no flops reported")
	}
}

// TestContractionRemovesTraffic verifies the central memory-behavior
// claim: contracted arrays generate no trace events at all.
func TestContractionRemovesTraffic(t *testing.T) {
	src := `
program traffic;
region R = [1..16, 1..16];
var A, B, C : [R] double;
var s : double;
proc main()
begin
  [R] A := 1.0;
  for it := 1 to 1 do
    [R] B := A * 2.0;
    [R] C := B + A;
    s := +<< [R] C;
  end;
end;
`
	base := &traceRecorder{}
	if _, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{Tracer: base}); err != nil {
		t.Fatal(err)
	}
	opt := &traceRecorder{}
	if _, _, err := vm.Run(compile(t, src, core.C2), vm.Options{Tracer: opt}); err != nil {
		t.Fatal(err)
	}
	// B and C contract: 256 writes + 256+256 reads disappear... at
	// minimum the optimized version must touch far less memory.
	if opt.reads+opt.writes >= base.reads+base.writes {
		t.Errorf("contraction did not reduce traffic: %d vs %d",
			opt.reads+opt.writes, base.reads+base.writes)
	}
	if base.flops != opt.flops {
		t.Errorf("flops changed: %d vs %d", base.flops, opt.flops)
	}
}

func TestMemoryFootprintAndAt(t *testing.T) {
	src := `
program foot;
region R = [1..10];
var A : [R] double;
proc main()
begin
  [R] A := 2.0;
end;
`
	m, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.MemoryFootprint() != 80 {
		t.Errorf("footprint = %d, want 80", m.MemoryFootprint())
	}
	if _, ok := m.At("A", 11); ok {
		t.Error("out-of-range At succeeded")
	}
	if _, ok := m.At("nope", 1); ok {
		t.Error("unknown array At succeeded")
	}
}

func TestGuardedNestSemantics(t *testing.T) {
	// Fragment-8 style: fused cluster over translated regions with
	// guards; the numeric results must match the unfused baseline.
	src := `
program guards;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B : [R] double;
var T1 : [2..n+1, 1..n] double;
var chk : double;
proc main()
begin
  [R] A := index1 * 1.0;
  [R] B := A * 0.5;
  for p := 1 to 1 do
    [2..n+1, 1..n] T1 := B;
    [R] A := A@(1,0) + T1@(1,0);
  end;
  chk := +<< [R] A + B;
  writeln(chk);
end;
`
	var base, opt bytes.Buffer
	if _, _, err := vm.Run(compile(t, src, core.Baseline), vm.Options{Out: &base}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := vm.Run(compile(t, src, core.C2F3), vm.Options{Out: &opt}); err != nil {
		t.Fatal(err)
	}
	if base.String() != opt.String() {
		t.Errorf("guarded fusion changed results: %q vs %q", base.String(), opt.String())
	}
}

// TestSeedBeforeRun: copying into ArrayData and calling SetScalar
// before Run must make the program observe the seeded state — the lazy
// runtime's VM execution path.
func TestSeedBeforeRun(t *testing.T) {
	src := `
program seed;
region R = [1..4];
var A : [R] double;
var s, out : double;
proc main()
begin
  [R] A := A + s;
  out := +<< [R] A;
  writeln(out);
end;
`
	var buf bytes.Buffer
	m, err := vm.New(compile(t, src, core.C2F3), vm.Options{Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	copy(m.ArrayData("A"), []float64{1, 2, 3, 4})
	slot := m.ScalarSlot("s")
	if slot == nil {
		t.Fatal("ScalarSlot missed scalar s")
	}
	*slot = 10
	if m.ScalarSlot("nope") != nil {
		t.Error("ScalarSlot found an unknown scalar")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "50\n" {
		t.Errorf("output %q, want \"50\\n\" (seeded state ignored)", got)
	}
	if v, _ := m.Scalar("out"); v != 50 {
		t.Errorf("out = %g, want 50", v)
	}
}

// seedMachine is what a caller re-seeding a machine writes before a
// run: every array cell and every scalar slot, drawn from rng, except
// that the arrays in zero are cleared and config scalars get their
// declared value. Names are visited in sorted order, so two machines
// seeded from equal rngs hold equal bytes.
func seedMachine(m *vm.Machine, p *lir.Program, rng *rand.Rand, zero map[string]bool) {
	for _, n := range sortedKeys(p.Source.Arrays) {
		data := m.ArrayData(n)
		if zero[n] {
			clear(data)
			continue
		}
		for i := range data {
			data[i] = float64(rng.Float64()*4) - 2
		}
	}
	for _, n := range sortedKeys(m.Scalars()) {
		if s := p.Source.Scalars[n]; s != nil && s.Config {
			*m.ScalarSlot(n) = s.Init
		} else {
			*m.ScalarSlot(n) = float64(rng.Float64()*4) - 2
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readBeforeWrite is a hand-built LIR in which a temp cell is read
// before a later nest writes it, as a lazy batch may do: B[4] reads
// T[5], which only the third nest writes. A fresh machine reads 0 there.
func readBeforeWrite() *lir.Program {
	decl := &sema.Region{Lo: []int{1}, Hi: []int{8}}
	nest := func(lo, hi int, lhs string, rhs air.Expr) *lir.Nest {
		return &lir.Nest{
			Region: &sema.Region{Lo: []int{lo}, Hi: []int{hi}},
			Order:  dep.LoopStructure{1},
			Body:   []*lir.NestStmt{{LHS: lhs, RHS: rhs}},
		}
	}
	return &lir.Program{
		Name: "rbw",
		Source: &air.Program{
			Arrays: map[string]*air.ArrayInfo{
				"T": {Name: "T", Declared: decl, Alloc: decl, Temp: true},
				"B": {Name: "B", Declared: decl, Alloc: decl},
			},
			Scalars: map[string]*air.ScalarInfo{},
		},
		Procs: map[string]*lir.Proc{"main": {Name: "main", Body: []lir.Node{
			nest(1, 4, "T", &air.ConstExpr{Val: 1}),
			nest(1, 4, "B", &air.RefExpr{Ref: air.Ref{Array: "T", Off: air.Offset{1}}}),
			nest(5, 8, "T", &air.ConstExpr{Val: 2}),
		}}},
	}
}

// TestRerunMatchesFresh: a machine run five times, Reset and re-seeded
// before each run, ends every run with the same output, array bits, scalar
// bits and step count as a fresh vm.New given the same seed. The strip
// buffers, loop indices, step count and fault carry nothing from one
// run to the next; storage carries what the seed does not overwrite,
// which readBeforeWrite shows.
func TestRerunMatchesFresh(t *testing.T) {
	heat, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	type prog struct {
		name string
		lir  *lir.Program
		zero map[string]bool
	}
	progs := []prog{{"heat", compileAt(t, string(heat), "n", 16), nil}}
	for _, name := range []string{"simple", "tomcatv"} {
		b, _ := programs.ByName(name)
		progs = append(progs, prog{name, compileAt(t, b.Source, b.SizeConfig, 16), nil})
	}
	progs = append(progs, prog{"read-before-write", readBeforeWrite(), map[string]bool{"T": true}})
	ctx := context.Background()
	for _, p := range progs {
		var out bytes.Buffer
		m, err := vm.New(p.lir, vm.Options{Out: &out})
		if err != nil {
			t.Fatal(err)
		}
		for run := int64(1); run <= 5; run++ {
			out.Reset()
			m.Reset(ctx)
			seedMachine(m, p.lir, rand.New(rand.NewSource(run)), p.zero)
			got, err := m.Run()
			if err != nil {
				t.Fatalf("%s run %d: %v", p.name, run, err)
			}
			var freshOut bytes.Buffer
			f, err := vm.New(p.lir, vm.Options{Out: &freshOut})
			if err != nil {
				t.Fatal(err)
			}
			seedMachine(f, p.lir, rand.New(rand.NewSource(run)), p.zero)
			want, err := f.Run()
			if err != nil {
				t.Fatalf("%s fresh run %d: %v", p.name, run, err)
			}
			if got.Steps != want.Steps || out.String() != freshOut.String() {
				t.Errorf("%s run %d: %d steps, output %q; fresh: %d steps, %q",
					p.name, run, got.Steps, out.String(), want.Steps, freshOut.String())
			}
			for n := range p.lir.Source.Arrays {
				a, b := m.ArrayData(n), f.ArrayData(n)
				for i := range b {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("%s run %d: %s[%d] = %v, fresh %v", p.name, run, n, i, a[i], b[i])
					}
				}
			}
			for n, v := range f.Scalars() {
				if got, _ := m.Scalar(n); math.Float64bits(got) != math.Float64bits(v) {
					t.Errorf("%s run %d: scalar %s = %v, fresh %v", p.name, run, n, got, v)
				}
			}
		}
	}

	// Not re-zeroing the temp is visible: the reused machine's B[4]
	// reads the T[5] the previous run wrote, where a fresh one reads 0.
	p := readBeforeWrite()
	m, err := vm.New(p, vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		m.Reset(ctx)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := m.At("B", 4); v != 2 {
		t.Errorf("B[4] after an unseeded rerun = %v, want 2 (the previous run's T[5])", v)
	}
}

// compileAt compiles src at c2+f4 with one config overridden.
func compileAt(t *testing.T, src, config string, v int64) *lir.Program {
	t.Helper()
	c, err := driver.Compile(src, driver.Options{Level: core.C2F4, Configs: map[string]int64{config: v}})
	if err != nil {
		t.Fatal(err)
	}
	return c.LIR
}

// TestEveryOperatorHasAnEntry: every AIR operator and every builtin
// sema accepts, in the form it takes, has an entry in the kernel table
// the machine compiles operators from.
func TestEveryOperatorHasAnEntry(t *testing.T) {
	for op := air.OpAdd; op <= air.OpNot; op++ {
		n := 2
		if op == air.OpNeg || op == air.OpNot {
			n = 1
		}
		if kernel.Lookup(op.String(), n) == nil {
			t.Errorf("operator %v/%d has no kernel entry", op, n)
		}
	}
	for name, n := range sema.Builtins {
		if kernel.Lookup(name, n) == nil {
			t.Errorf("builtin %s/%d has no kernel entry", name, n)
		}
	}
}
