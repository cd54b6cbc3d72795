package distvm_test

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/vm"
)

// runBoth compiles src for procs processors, executes sequentially and
// distributed, and compares every non-contracted array element and the
// writeln transcripts.
func runBoth(t *testing.T, src string, lvl core.Level, procs int, cfg map[string]int64) {
	t.Helper()
	runBothOpt(t, src, driver.Options{Level: lvl, Configs: cfg}, procs)
}

// runBothOpt is runBoth over arbitrary compile options (opt.Comm is
// set here for the distributed side).
func runBothOpt(t *testing.T, src string, opt driver.Options, procs int) {
	t.Helper()
	// Sequential reference: same optimization level, no communication.
	ref, err := driver.Compile(src, opt)
	if err != nil {
		t.Fatalf("sequential compile: %v", err)
	}
	var refOut bytes.Buffer
	refM, _, err := vm.Run(ref.LIR, vm.Options{Out: &refOut})
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}

	// Distributed: communication inserted, real exchanges performed.
	co := comm.DefaultOptions(procs)
	opt.Comm = &co
	dc, err := driver.Compile(src, opt)
	if err != nil {
		t.Fatalf("distributed compile: %v", err)
	}
	var distOut bytes.Buffer
	dm, err := distvm.Run(dc.LIR, distvm.Options{Procs: procs, Out: &distOut})
	if err != nil {
		t.Fatalf("distributed run (p=%d): %v", procs, err)
	}

	if !outputsClose(refOut.String(), distOut.String()) {
		t.Errorf("p=%d transcripts differ:\nseq:  %q\ndist: %q", procs, refOut.String(), distOut.String())
	}
	if err := dm.ScalarsConsistent(); err != nil {
		t.Errorf("p=%d: %v", procs, err)
	}

	// Compare arrays that are allocated in BOTH compilations (the
	// distributed one may contract fewer arrays).
	for name, info := range ref.AIR.Arrays {
		if info.Contracted {
			continue
		}
		dinfo := dc.AIR.Arrays[name]
		if dinfo == nil || dinfo.Contracted {
			continue
		}
		want := refM.ArrayData(name)
		got := dm.Gather(name)
		if len(want) != len(got) {
			t.Errorf("p=%d %s: size %d vs %d", procs, name, len(want), len(got))
			continue
		}
		for i := range want {
			if !closeEnough(want[i], got[i]) {
				t.Errorf("p=%d %s[%d] = %v, want %v", procs, name, i, got[i], want[i])
				break
			}
		}
	}
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func outputsClose(a, b string) bool {
	ta, tb := strings.Fields(a), strings.Fields(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] == tb[i] {
			continue
		}
		fa, errA := strconv.ParseFloat(ta[i], 64)
		fb, errB := strconv.ParseFloat(tb[i], 64)
		if errA != nil || errB != nil || !closeEnough(fa, fb) {
			return false
		}
	}
	return true
}

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

func TestStencilMatchesSequential(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 9, 16} {
		for _, lvl := range []core.Level{core.Baseline, core.C2F3} {
			runBoth(t, stencilSrc, lvl, procs, nil)
		}
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
	for _, procs := range []int{4, 6, 9} {
		runBoth(t, src, core.C2F3, procs, nil)
	}
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
	for _, procs := range []int{2, 4, 5} {
		runBoth(t, src, core.C2F3, procs, nil)
	}
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
			cfg := map[string]int64{b.SizeConfig: size}
			for _, procs := range []int{4, 9} {
				runBoth(t, b.Source, core.C2F3, procs, cfg)
			}
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
	if err == nil && outputsClose(refOut.String(), distOut.String()) {
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
	runBoth(t, src, core.C2F3, 4, nil)
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
