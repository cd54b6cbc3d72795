package gogen_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/backend"
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
	if err := backend.WriteProgramModule(dir); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "main.go")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("%s: go vet rejects emitted source: %v\n%s", name, err, out)
	}
}

// TestUnreadRegisterVetClean: a register the nest assigns and nothing
// reads (the compiler does not leave one behind; the emitter must not
// depend on that) is not declared by the scalar sweep — Go rejects an
// unused local — and its right-hand side is still evaluated. A nest that
// runs strips keeps it in a strip buffer, and vets clean too.
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
	// Rows of 160 run strips, where the emission has them.
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": 160}})
	if err != nil {
		t.Fatal(err)
	}
	for _, nest := range lir.Nests(c.LIR.Main.Body) {
		nest.Body = append(nest.Body, &lir.NestStmt{LHS: "DEAD", Contracted: true,
			RHS: &air.BinExpr{Op: air.OpMul, X: &air.IndexExpr{Dim: 2}, Y: &air.ConstExpr{Val: 1.5}}})
	}
	was := gogen.SetPackedHost(false)
	out, err := gogen.EmitBounds(c.LIR, c.Bounds)
	gogen.SetPackedHost(was)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "_ = float64(float64(i2) * 1.5)") || strings.Contains(out, "za_DEAD") {
		t.Errorf("unread register not dropped:\n%s", out)
	}
	vetClean(t, "heat", out)

	// A nest that runs strips keeps its registers in the strip buffers,
	// where an unread one is no unused local.
	defer gogen.SetPackedHost(gogen.SetPackedHost(true))
	out, err = gogen.EmitBounds(c.LIR, c.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\n// strips: ") {
		t.Fatal("heat at n=160 runs no strips; the second half is vacuous")
	}
	vetClean(t, "heat strips", out)
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

// TestEmitStateNilSpecIdentical: the one-shot emission carries none of
// the worker machinery — the state protocol may not perturb the content
// addresses of one-shot native artifacts — and the worker emission of
// the same program has its mapping, its serve loop and its output
// buffer, no arena, no self-timing and no print to stdout, and go vet
// accepts it.
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
		if strings.Contains(plain, "zaW_") {
			t.Errorf("%s: one-shot emission contains worker machinery", lvl)
		}
		out, err := gogen.EmitWorker(c.LIR, c.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"func zaW_map()", "syscall.Mmap(", "zaW_out = fmt.Appendf(zaW_out,", "os.Stdin.Read("} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: worker emission missing %q", lvl, want)
			}
		}
		if strings.Contains(out, `"time"`) || strings.Contains(out, "fmt.Printf") || strings.Contains(out, "zaM_") {
			t.Errorf("%s: worker emission times itself, prints to stdout or has an arena:\n%s", lvl, out)
		}
		if _, err := exec.LookPath("go"); err == nil && !testing.Short() {
			vetClean(t, "quickstart worker", out)
		}
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

// TestStripRuleLeavesOtherNests: a nest outside the strip rule — one
// whose only operators are comparisons, one that only copies and sums —
// is emitted on a host with the packed kernels exactly as on one
// without them, which is the emission from before strips existed. ZA
// source compares scalars only, so the comparisons are put into B's
// and C's right-hand sides after compilation.
func TestStripRuleLeavesOtherNests(t *testing.T) {
	const src = `
program cmp;
config n : integer = 300;
region R = [1..4, 1..n];
var A, B, C : [R] double;
var s : double;
proc main()
begin
  [R] A := index2;
  [R] B := A;
  [R] C := B;
  s := +<< [R] C;
  writeln(s);
end;
`
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		c, err := driver.Compile(src, driver.Options{Level: lvl})
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range lir.Nests(c.LIR.Main.Body) {
			for _, st := range nest.Body {
				switch st.LHS {
				case "B":
					st.RHS = &air.BinExpr{Op: air.OpLt, X: st.RHS, Y: &air.ConstExpr{Val: 150}}
				case "C":
					st.RHS = &air.BinExpr{Op: air.OpEq, X: &air.BinExpr{Op: air.OpGe, X: st.RHS, Y: st.RHS},
						Y: &air.BinExpr{Op: air.OpNe, X: st.RHS, Y: &air.ConstExpr{Val: 0}}}
				}
			}
		}
		var out [2]string
		for i, packed := range []bool{false, true} {
			was := gogen.SetPackedHost(packed)
			out[i], err = gogen.EmitBounds(c.LIR, c.Bounds)
			gogen.SetPackedHost(was)
			if err != nil {
				t.Fatal(err)
			}
		}
		if out[0] != out[1] || !strings.Contains(out[0], "za_b2f(") {
			t.Errorf("at %v the emission moved with the packed kernels:\n%s", lvl, out[1])
		}
	}
}
