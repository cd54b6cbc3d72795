package driver_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/machine"
	"repro/internal/vm"
)

// stencil exercises user temporaries (T contracts after fusion),
// compiler temporaries (X := X@north + Y needs one, contractible with
// a reversed loop), reductions, and iteration.
const stencil = `
program stencil;
config n : integer = 16;
config iters : integer = 4;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
direction north = (-1, 0); west = (0, -1);
var X, Y : [R] double;
var T : [R] double;
var s : double;
proc main()
begin
  [R] X := 1.0;
  [R] Y := 0.0;
  for it := 1 to iters do
    [I] T := (X@north + X@west) * 0.5;
    [I] Y := T + X;
    [I] X := X@north + Y;
    s := +<< [I] Y;
  end;
  writeln("sum", s);
end;
`

func run(t *testing.T, src string, opt driver.Options) (*vm.Machine, string) {
	t.Helper()
	c, err := driver.Compile(src, opt)
	if err != nil {
		t.Fatalf("compile at %v: %v", opt.Level, err)
	}
	var out bytes.Buffer
	m, _, err := c.Run(vm.Options{Out: &out})
	if err != nil {
		t.Fatalf("run at %v: %v\n%s", opt.Level, err, lir.EmitC(c.LIR))
	}
	return m, out.String()
}

// TestAllLevelsAgree is the transformation-soundness test: every
// optimization level computes the same results.
func TestAllLevelsAgree(t *testing.T) {
	_, want := run(t, stencil, driver.Options{Level: core.Baseline})
	if !strings.Contains(want, "sum") {
		t.Fatalf("baseline output missing sum: %q", want)
	}
	for _, lvl := range core.Levels()[1:] {
		_, got := run(t, stencil, driver.Options{Level: lvl})
		if got != want {
			t.Errorf("level %v output = %q, want %q", lvl, got, want)
		}
	}
}

// TestAllLevelsAgreeDistributed re-checks soundness with communication
// inserted, both strategies.
func TestAllLevelsAgreeDistributed(t *testing.T) {
	_, want := run(t, stencil, driver.Options{Level: core.Baseline})
	for _, strat := range []comm.Strategy{comm.FavorFusion, comm.FavorComm} {
		for _, lvl := range core.Levels() {
			co := comm.DefaultOptions(4)
			co.Strategy = strat
			_, got := run(t, stencil, driver.Options{Level: lvl, Comm: &co})
			if got != want {
				t.Errorf("level %v strategy %v output = %q, want %q", lvl, strat, got, want)
			}
		}
	}
}

func TestContractionReducesMemory(t *testing.T) {
	mBase, _ := run(t, stencil, driver.Options{Level: core.Baseline})
	mC2, _ := run(t, stencil, driver.Options{Level: core.C2})
	if mC2.MemoryFootprint() >= mBase.MemoryFootprint() {
		t.Errorf("c2 footprint %d not below baseline %d",
			mC2.MemoryFootprint(), mBase.MemoryFootprint())
	}
}

func TestContractionEliminatesTempAndCompilerArrays(t *testing.T) {
	c, err := driver.Compile(stencil, driver.Options{Level: core.C2})
	if err != nil {
		t.Fatal(err)
	}
	// T (user temp) and the compiler temp for [I] X := X*0.5+T*0.5
	// must both be contracted.
	if !c.Plan.Contracted["T"] {
		t.Errorf("user temporary T not contracted; contracted = %v", c.Plan.Contracted)
	}
	foundTemp := false
	for name, a := range c.AIR.Arrays {
		if a.Temp {
			foundTemp = true
			if !c.Plan.Contracted[name] {
				t.Errorf("compiler temp %s not contracted", name)
			}
		}
	}
	if !foundTemp {
		t.Error("no compiler temp was generated for the self-referencing statement")
	}
}

func TestC1ContractsOnlyCompilerArrays(t *testing.T) {
	c, err := driver.Compile(stencil, driver.Options{Level: core.C1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan.Contracted["T"] {
		t.Error("c1 contracted a user array")
	}
	any := false
	for name, a := range c.AIR.Arrays {
		if a.Temp && c.Plan.Contracted[name] {
			any = true
		}
	}
	if !any {
		t.Error("c1 contracted no compiler arrays")
	}
}

func TestFusionReducesNestCount(t *testing.T) {
	base, err := driver.Compile(stencil, driver.Options{Level: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := driver.Compile(stencil, driver.Options{Level: core.C2})
	if err != nil {
		t.Fatal(err)
	}
	if c2.LIR.CountNests() >= base.LIR.CountNests() {
		t.Errorf("c2 nests %d not below baseline %d", c2.LIR.CountNests(), base.LIR.CountNests())
	}
}

func TestNumericCorrectness(t *testing.T) {
	// A hand-checkable computation: X=1 everywhere, then
	// Y = X@north + 2, sum over interior of 4x4.
	src := `
program tiny;
region R = [1..4, 1..4];
region I = [2..3, 2..3];
direction north = (-1, 0);
var X, Y : [R] double;
var s : double;
proc main()
begin
  [R] X := 1.0;
  [I] Y := X@north + 2.0;
  s := +<< [I] Y;
  writeln(s);
end;
`
	for _, lvl := range core.Levels() {
		m, out := run(t, src, driver.Options{Level: lvl})
		// Y = 3.0 over the 2x2 interior; sum = 12.
		if !strings.HasPrefix(strings.TrimSpace(out), "12") {
			t.Errorf("level %v: output %q, want 12", lvl, out)
		}
		if v, ok := m.At("X", 1, 1); !ok || v != 1.0 {
			t.Errorf("level %v: X[1,1] = %v, %v", lvl, v, ok)
		}
	}
}

func TestReversedLoopSemantics(t *testing.T) {
	// A := A@(-1,0)+A@(-1,0) via compiler temp: requires the fused
	// loop to run dimension 1 in reverse. Row i becomes 2*old(i-1).
	src := `
program rev;
region R = [1..4, 1..4];
direction north = (-1, 0);
var A : [R] double;
var s : double;
proc main()
begin
  [R] A := 3.0;
  [R] A := A@north + A@north;
  s := +<< [R] A;
  writeln(s);
end;
`
	for _, lvl := range core.Levels() {
		m, _ := run(t, src, driver.Options{Level: lvl})
		// Row 1 reads the halo row 0 (zeros): A[1][*] = 0.
		// Rows 2..4 = 6.0 each.
		if v, ok := m.At("A", 1, 1); !ok || v != 0 {
			t.Errorf("level %v: A[1,1] = %v, want 0", lvl, v)
		}
		if v, ok := m.At("A", 3, 2); !ok || v != 6 {
			t.Errorf("level %v: A[3,2] = %v, want 6", lvl, v)
		}
	}
}

func TestProcedures(t *testing.T) {
	src := `
program procs;
var a, b : double;
proc square(x : double) : double
begin
  return x * x;
end;
proc main()
begin
  a := square(3.0);
  b := square(a) + square(2.0);
  writeln(a, b);
end;
`
	_, out := run(t, src, driver.Options{Level: core.C2})
	want := "9 85"
	if strings.TrimSpace(out) != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestConfigOverrideChangesProblemSize(t *testing.T) {
	c, err := driver.Compile(stencil, driver.Options{Level: core.C2, Configs: map[string]int64{"n": 32}})
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Info.Regions["R"]; r.Size() != 1024 {
		t.Errorf("R size %d, want 1024", r.Size())
	}
}

func TestMaxReduction(t *testing.T) {
	src := `
program mx;
region R = [1..8];
var A : [R] double;
var m, mn : double;
proc main()
var i : double;
begin
  i := 0.0;
  [R] A := 5.0;
  m := max<< [R] A * 2.0;
  mn := min<< [R] A - 7.0;
  writeln(m, mn);
end;
`
	_, out := run(t, src, driver.Options{Level: core.C2})
	if strings.TrimSpace(out) != "10 -2" {
		t.Errorf("output %q, want 10 -2", out)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := driver.Compile("program broken;;", driver.Options{}); err == nil {
		t.Error("expected parse error")
	}
	if _, err := driver.Compile("program p; proc main() begin x := 1; end;", driver.Options{}); err == nil {
		t.Error("expected sema error")
	}
	src := `
program rec;
proc a() begin b(); end;
proc b() begin a(); end;
proc main() begin a(); end;
`
	if _, err := driver.Compile(src, driver.Options{}); err == nil {
		t.Error("expected recursion error")
	}
}

func TestWhileAndIf(t *testing.T) {
	src := `
program ctrl;
var n, f : double;
proc main()
begin
  n := 5.0;
  f := 1.0;
  while n > 0.0 do
    f := f * n;
    n := n - 1.0;
  end;
  if f = 120.0 then
    writeln("ok", f);
  else
    writeln("bad", f);
  end;
end;
`
	_, out := run(t, src, driver.Options{Level: core.C2})
	if strings.TrimSpace(out) != "ok 120" {
		t.Errorf("output %q", out)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	m1, o1 := run(t, stencil, driver.Options{Level: core.C2F4})
	m2, o2 := run(t, stencil, driver.Options{Level: core.C2F4})
	if o1 != o2 {
		t.Errorf("outputs differ: %q vs %q", o1, o2)
	}
	s1, _ := m1.Scalar("s")
	s2, _ := m2.Scalar("s")
	if math.Abs(s1-s2) > 0 {
		t.Errorf("scalars differ: %v vs %v", s1, s2)
	}
}

func TestDriverErrorPaths(t *testing.T) {
	cases := map[string]string{
		"parse":    "program ;;;",
		"sema":     "program p; proc main() begin zz := 1; end;",
		"noMain":   "program p; proc other() begin end;",
		"badShape": "program p; region R = [5..1]; var A : [R] double; proc main() begin end;",
	}
	for name, src := range cases {
		if _, err := driver.Compile(src, driver.Options{}); err == nil {
			t.Errorf("%s: compile succeeded", name)
		}
	}
}

func TestCompilationIsolation(t *testing.T) {
	// Two compilations of the same source must not share mutable IR:
	// planning one at c2 cannot mark arrays contracted in the other.
	a, err := driver.Compile(stencil, driver.Options{Level: core.C2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := driver.Compile(stencil, driver.Options{Level: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	for name, info := range b.AIR.Arrays {
		if info.Contracted {
			t.Errorf("baseline compilation has contracted array %s", name)
		}
	}
	if len(a.Plan.Contracted) == 0 {
		t.Error("c2 compilation contracted nothing")
	}
}

// TestResidentMachine: a compilation nobody made resident keeps no
// machine; a resident one keeps the first machine handed back and drops
// a second, Run rewinds the kept one to print what a fresh machine
// does, and a traced run, which needs another machine, drops it.
func TestResidentMachine(t *testing.T) {
	c := driver.MustCompile(stencil, driver.Options{Level: core.C2F4})
	runs := func() (*vm.Machine, string) {
		t.Helper()
		var out bytes.Buffer
		m, _, err := c.Run(vm.Options{Out: &out})
		if err != nil {
			t.Fatal(err)
		}
		return m, out.String()
	}
	m1, want := runs()
	c.HandBack(m1)
	if m, _ := runs(); m == m1 {
		t.Fatal("a compilation nobody made resident kept a machine")
	}

	c.Resident()
	m2, _ := runs()
	m3, _ := runs()
	c.HandBack(m2)
	c.HandBack(m3)
	m, got := runs()
	if m != m2 || got != want {
		t.Errorf("kept the first machine handed back: %t; output %q, fresh %q", m == m2, got, want)
	}
	c.HandBack(m)
	model, _ := machine.ByName("t3e")
	if _, _, err := c.Run(vm.Options{Tracer: machine.NewCostTracer(model, 1)}); err != nil {
		t.Fatal(err)
	}
	if m, _ := runs(); m == m2 {
		t.Error("a traced run left the kept machine kept")
	}
}
