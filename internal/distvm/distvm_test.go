package distvm_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/difftest/matrix"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/vm"
)

const stencilSrc = `
program dstencil;
config n : integer = 16;
config iters : integer = 3;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
direction north = (-1, 0); west = (0, -1);
var X, Y, T : [R] double;
var s : double;
proc main()
begin
  [R] X := index1 * 0.5 + index2 * 0.25;
  [R] Y := 0.0;
  for it := 1 to iters do
    [I] T := (X@north + X@west) * 0.5;
    [I] Y := T + X;
    [I] X := X@north + Y;
    s := +<< [I] Y;
  end;
  writeln("s", s);
end;
`

// distributed is src at c2+f3 over each processor count, on the VM and
// on distvm.
func distributed(name, src string, procs ...int) matrix.Cell {
	c := matrix.Program{Name: name, Src: src}.At(core.C2F3, 0)
	c.Procs = procs
	return c
}

func TestStencilMatchesSequential(t *testing.T) {
	for _, lvl := range []core.Level{core.Baseline, core.C2F3} {
		c := matrix.Program{Name: "dstencil", Src: stencilSrc}.At(lvl, 0)
		c.Procs = []int{1, 2, 4, 9, 16}
		matrix.Check(t, c)
	}
}

func TestDiagonalOffsets(t *testing.T) {
	src := `
program diag;
config n : integer = 12;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 * 3.0 + index2;
  for it := 1 to 2 do
    [I] B := A@(1,1) + A@(-1,-1) + A@(1,-1) + A@(-1,1);
    [I] A := B * 0.2;
    s := +<< [R] A;
  end;
  writeln(s);
end;
`
	matrix.Check(t, distributed("diag", src, 4, 6, 9))
}

func TestWideOffsets(t *testing.T) {
	src := `
program wide;
config n : integer = 16;
region R = [1..n];
region I = [3..n-2];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 * 1.0;
  [I] B := A@(2) + A@(-2);
  s := +<< [I] B;
  writeln(s);
end;
`
	matrix.Check(t, distributed("wide", src, 2, 4, 5))
}

// TestBenchmarksDistributed runs every paper benchmark on the
// distributed interpreter and compares with the sequential VM — the
// end-to-end validation of communication insertion.
func TestBenchmarksDistributed(t *testing.T) {
	for _, b := range programs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			size := int64(16)
			if b.Rank == 1 {
				size = 128
			}
			c := distributed(b.Name, b.Source, 4, 9)
			c.Opt.Configs = map[string]int64{b.SizeConfig: size}
			matrix.Check(t, c)
		})
	}
}

// TestMissingCommDetected: with communication insertion disabled, the
// distributed run must NOT match the sequential one (stale halos), or
// must fail — proving the comparison has teeth.
func TestMissingCommDetected(t *testing.T) {
	// Compile WITHOUT comm but run distributed.
	c, err := driver.Compile(stencilSrc, driver.Options{Level: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	var refOut bytes.Buffer
	if _, _, err := vm.Run(c.LIR, vm.Options{Out: &refOut}); err != nil {
		t.Fatal(err)
	}
	var distOut bytes.Buffer
	_, err = distvm.Run(c.LIR, distvm.Options{Procs: 4, Out: &distOut})
	if err == nil && difftest.Close(refOut.String(), distOut.String()) {
		t.Error("run without communication still matched — comparison has no teeth")
	}
}

func TestProcZeroOutputOnly(t *testing.T) {
	src := `
program hello;
proc main()
begin
  writeln("once");
end;
`
	c, err := driver.Compile(src, driver.Options{Level: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := distvm.Run(c.LIR, distvm.Options{Procs: 8, Out: &out}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "once") != 1 {
		t.Errorf("writeln executed %d times", strings.Count(out.String(), "once"))
	}
}

func TestWhileAndControlDistributed(t *testing.T) {
	src := `
program ctrl;
config n : integer = 8;
region R = [1..n];
var A : [R] double;
var s, iter : double;
proc main()
begin
  [R] A := index1 * 1.0;
  iter := 0.0;
  s := 0.0;
  while iter < 3.0 do
    [R] A := A@(1) + 1.0;
    s := +<< [R] A;
    iter := iter + 1.0;
  end;
  if s > 0.0 then
    writeln("pos", s);
  else
    writeln("neg", s);
  end;
end;
`
	matrix.Check(t, distributed("ctrl", src, 4))
}

func TestStepBudgetDistributed(t *testing.T) {
	c, err := driver.Compile(stencilSrc, driver.Options{Level: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distvm.Run(c.LIR, distvm.Options{Procs: 4, MaxSteps: 10}); err == nil {
		t.Error("budget not enforced")
	}
}

func TestInvalidProcCount(t *testing.T) {
	c, err := driver.Compile(stencilSrc, driver.Options{Level: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distvm.Run(c.LIR, distvm.Options{Procs: 0}); err == nil {
		t.Error("p=0 accepted")
	}
}
