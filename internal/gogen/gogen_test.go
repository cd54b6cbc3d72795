package gogen_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/programs"
)

// TestNativeMatchesVM: generated Go prints the VM's bytes on a program
// with a procedure, both branches of an if and a loop-carried sum.
func TestNativeMatchesVM(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	src := `
program native;
config n : integer = 12;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
direction north = (-1, 0); east = (0, 1);
var A, B, T : [R] double;
var s, acc : double;
proc scale(x : double) : double
begin
  return x * 0.125;
end;
proc main()
begin
  [R] A := index1 * 0.5 + index2;
  acc := 0.0;
  for it := 1 to 3 do
    [I] T := (A@north + A@east) * 0.5;
    [I] B := T + A;
    [I] A := A@north + B;
    s := +<< [I] B;
    acc := acc + scale(s);
  end;
  if acc > 0.0 then
    writeln("acc", acc);
  else
    writeln("neg", acc);
  end;
  s := max<< [R] A;
  writeln("max", s);
end;
`
	for _, lvl := range []core.Level{core.Baseline, core.C2F3} {
		matrix.Check(t, matrix.Program{Name: "native", Src: src}.At(lvl, matrix.Go))
	}
}

// TestNativeBenchmark: one full paper benchmark through the native
// back end.
func TestNativeBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	b, _ := programs.ByName("fibro")
	p := matrix.Program{Name: b.Name, Src: b.Source, Configs: map[string]int64{"n": 24}}
	matrix.Check(t, p.At(core.C2F3, matrix.Go))
}

// TestEmitAllBenchmarks: every benchmark at every level emits valid,
// gofmt-parseable Go (vetted by the toolchain in the two run tests;
// here we just require emission to succeed).
func TestEmitAllBenchmarks(t *testing.T) {
	for _, b := range programs.All() {
		for _, lvl := range core.AllLevels() {
			c, err := driver.Compile(b.Source, driver.Options{Level: lvl})
			if err != nil {
				t.Fatalf("%s at %v: %v", b.Name, lvl, err)
			}
			if _, err := gogen.Emit(c.LIR); err != nil {
				t.Errorf("%s at %v: %v", b.Name, lvl, err)
			}
		}
	}
}

// TestImportsMatchUsage: the emitter imports exactly what the program
// uses — no blank-identifier hack keeping a spurious import alive, and
// no math import unless the program actually calls into math.
func TestImportsMatchUsage(t *testing.T) {
	noMath := `
program nomath;
config n : integer = 8;
region R = [1..n];
var A : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 * 2.0;
  s := +<< [R] A;
  writeln("s", s);
end;
`
	c, err := driver.Compile(noMath, driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	src, err := gogen.Emit(c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(src, "var _ =") {
		t.Errorf("emitted source carries a blank-identifier import hack:\n%s", src)
	}
	if strings.Contains(src, `"math"`) {
		t.Errorf("math imported by a program that never uses it:\n%s", src)
	}

	// A max-reduction needs math (the -Inf identity and math.Max).
	withMath := strings.Replace(noMath, "+<<", "max<<", 1)
	c, err = driver.Compile(withMath, driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	src, err = gogen.Emit(c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, `"math"`) {
		t.Errorf("max-reduction program missing its math import:\n%s", src)
	}
	if strings.Contains(src, "var _ =") {
		t.Errorf("emitted source carries a blank-identifier import hack:\n%s", src)
	}
}

// TestEmittedSourceVetClean: go vet accepts the emitted source for
// every benchmark — in particular it finds no unused identifiers or
// suspect format strings in generated code.
func TestEmittedSourceVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	for _, b := range programs.All() {
		c, err := driver.Compile(b.Source, driver.Options{Level: core.C2F4S})
		if err != nil {
			t.Fatal(err)
		}
		src, err := gogen.Emit(c.LIR)
		if err != nil {
			t.Fatal(err)
		}
		vetClean(t, b.Name, src)
	}
}

// vetClean runs go vet over one emitted source.
func vetClean(t *testing.T, name, src string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "main.go")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("%s: go vet rejects emitted source: %v\n%s", name, err, out)
	}
}

// TestUnreadRegisterVetClean: a register the nest assigns and nothing
// reads (the compiler does not leave one behind; the emitter must not
// depend on that) is not declared — Go rejects an unused local — and its
// right-hand side is still evaluated.
func TestUnreadRegisterVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	src, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F4})
	if err != nil {
		t.Fatal(err)
	}
	for _, nest := range lir.Nests(c.LIR.Main.Body) {
		nest.Body = append(nest.Body, &lir.NestStmt{LHS: "DEAD", Contracted: true,
			RHS: &air.BinExpr{Op: air.OpMul, X: &air.IndexExpr{Dim: 2}, Y: &air.ConstExpr{Val: 1.5}}})
	}
	out, err := gogen.EmitBounds(c.LIR, c.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "_ = (float64(i2) * 1.5)") || strings.Contains(out, "za_DEAD") {
		t.Errorf("unread register not dropped:\n%s", out)
	}
	vetClean(t, "heat", out)
}

// TestNativePartialReduction: dimensional reductions through the
// native back end match the VM exactly.
func TestNativePartialReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	src := `
program pnative;
config n : integer = 8;
region R = [1..n, 1..n];
region Rows = [1..n, 1..1];
var A : [R] double;
var RS : [Rows] double;
var s : double;
proc main()
begin
  [R] A := index1 * 2.0 + index2 * 0.5;
  [Rows] RS := max<< [R] A;
  s := +<< [Rows] RS;
  writeln("s", s);
end;
`
	matrix.Check(t, matrix.Program{Name: "pnative", Src: src}.At(core.C2F3, matrix.Go))
}

// TestEmitStateNilSpecIdentical: a nil StateSpec must emit exactly the
// historical output — the state protocol may not perturb the content
// addresses of existing native artifacts.
func TestEmitStateNilSpecIdentical(t *testing.T) {
	src, err := os.ReadFile("../../testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []core.Level{core.Baseline, core.C2F4S} {
		c, err := driver.Compile(string(src), driver.Options{Level: lvl})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := gogen.EmitBounds(c.LIR, c.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		stated, err := gogen.EmitState(c.LIR, c.Bounds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plain != stated {
			t.Errorf("%s: EmitState(nil spec) diverged from EmitBounds", lvl)
		}
		if strings.Contains(plain, "zaW_") {
			t.Errorf("%s: spec-less emission contains worker machinery", lvl)
		}
	}
}

// TestEmitStateSpecValidation: unknown or contracted names in the spec
// must be emission errors, and a valid spec must produce a worker — its
// mapping, its serve loop, its output buffer, no self-timing — whose
// source go vet accepts.
func TestEmitStateSpecValidation(t *testing.T) {
	src, err := os.ReadFile("../../testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F4S})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gogen.EmitState(c.LIR, c.Bounds, &gogen.StateSpec{Arrays: []string{"nope"}}); err == nil {
		t.Error("unknown array accepted")
	}
	if _, err := gogen.EmitState(c.LIR, c.Bounds, &gogen.StateSpec{Scalars: []string{"nope"}}); err == nil {
		t.Error("unknown scalar accepted")
	}
	spec := &gogen.StateSpec{}
	var contracted string
	for n, a := range c.LIR.Source.Arrays {
		if a.Contracted {
			contracted = n
		} else {
			spec.Arrays = append(spec.Arrays, n)
		}
	}
	for n := range c.LIR.Source.Scalars {
		spec.Scalars = append(spec.Scalars, n)
	}
	if contracted != "" {
		if _, err := gogen.EmitState(c.LIR, c.Bounds, &gogen.StateSpec{Arrays: []string{contracted}}); err == nil {
			t.Error("contracted array accepted")
		}
	}
	if len(spec.Arrays) == 0 {
		t.Fatal("no live array to spec")
	}
	out, err := gogen.EmitState(c.LIR, c.Bounds, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"func zaW_map()", "syscall.Mmap(", "zaW_out = fmt.Appendf(zaW_out,", "os.Stdin.Read("} {
		if !strings.Contains(out, want) {
			t.Errorf("worker emission missing %q", want)
		}
	}
	if strings.Contains(out, `"time"`) || strings.Contains(out, "fmt.Printf") {
		t.Errorf("worker emission times itself or prints to stdout:\n%s", out)
	}
	if _, err := exec.LookPath("go"); err == nil && !testing.Short() {
		vetClean(t, "quickstart worker", out)
	}
}

var emitSink int // keeps the benchmarked emission's result alive

// BenchmarkEmit times EmitBounds over the cells the bench harness's
// compile workload emits (6 programs × ladder ends, default sizes): the
// emitter is inside that workload's operation, so an emitter change
// has a number here before the harness runs. One op is all 12 cells.
func BenchmarkEmit(b *testing.B) {
	var comps []*driver.Compilation
	for _, p := range programs.All() {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			c, err := driver.Compile(p.Source, driver.Options{Level: lvl})
			if err != nil {
				b.Fatal(err)
			}
			comps = append(comps, c)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range comps {
			src, err := gogen.EmitBounds(c.LIR, c.Bounds)
			if err != nil {
				b.Fatal(err)
			}
			emitSink += len(src)
		}
	}
}
