package driver_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/vm"
)

// partial exercises ZPL-style dimensional reductions: row sums, column
// maxima, and their consumption by later statements.
const partial = `
program partial;
config n : integer = 6;
region R = [1..n, 1..n];
region Rows = [1..n, 1..1];
region Cols = [1..1, 1..n];
var A : [R] double;
var RS : [Rows] double;
var CM : [Cols] double;
var s, t : double;
proc main()
begin
  [R] A := index1 * 10.0 + index2;
  [Rows] RS := +<< [R] A;
  [Cols] CM := max<< [R] A;
  s := +<< [Rows] RS;
  t := +<< [Cols] CM;
  writeln(s, t);
end;
`

func TestPartialReductionValues(t *testing.T) {
	m, out := run(t, partial, driver.Options{Level: core.Baseline})
	// Row i sum: sum_j (10i + j) = 60i + 21. RS[i][1] checks.
	if v, ok := m.At("RS", 3, 1); !ok || v != 60*3+21 {
		t.Errorf("RS[3] = %v, want %d", v, 60*3+21)
	}
	// Column max: max_i (10i + j) = 60 + j.
	if v, ok := m.At("CM", 1, 4); !ok || v != 64 {
		t.Errorf("CM[4] = %v, want 64", v)
	}
	// s = sum_i (60i+21) = 60*21 + 126 = 1386; t = sum_j (60+j) = 381.
	if !strings.Contains(out, "1386 381") {
		t.Errorf("output %q, want totals 1386 381", out)
	}
}

func TestPartialReductionAllLevels(t *testing.T) {
	for _, lvl := range core.AllLevels() {
		matrix.Check(t, matrix.Program{Name: "partial", Src: partial}.At(lvl, 0))
	}
}

func TestPartialReductionDistributed(t *testing.T) {
	c := matrix.Program{Name: "partial", Src: partial}.At(core.C2F3, 0)
	c.Procs = []int{2, 4, 9}
	matrix.Check(t, c)
}

// The destination array stays live and the reduction never fuses — it
// is unnormalized like communication.
func TestPartialReductionStaysUnfused(t *testing.T) {
	c, err := driver.Compile(partial, driver.Options{Level: core.C2F4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan.Contracted["RS"] || c.Plan.Contracted["CM"] {
		t.Error("partial-reduction destination contracted")
	}
	// A feeds an unnormalized statement: it must stay in memory too.
	if c.Plan.Contracted["A"] {
		t.Error("partial-reduction source contracted")
	}
}

func TestPartialReductionOrdering(t *testing.T) {
	// A is rewritten after the reduction: the reduction must read the
	// OLD values (anti dependence ordering).
	src := `
program order;
region R = [1..4, 1..4];
region Rows = [1..4, 1..1];
var A : [R] double;
var RS : [Rows] double;
var s : double;
proc main()
begin
  [R] A := 1.0;
  [Rows] RS := +<< [R] A;
  [R] A := 100.0;
  s := +<< [Rows] RS;
  writeln(s);
end;
`
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		_, out := run(t, src, driver.Options{Level: lvl})
		if strings.TrimSpace(out) != "16" {
			t.Errorf("level %v: RS summed %q, want 16 (old A values)", lvl, out)
		}
	}
}

func TestPartialReductionErrors(t *testing.T) {
	bad := `
program bad;
region R = [1..4, 1..4];
region Wrong = [1..3, 1..1];
var A : [R] double;
var RS : [Wrong] double;
proc main()
begin
  [Wrong] RS := +<< [R] A;
end;
`
	if _, err := driver.Compile(bad, driver.Options{}); err == nil {
		t.Error("mismatched partial-reduction shape accepted")
	}
}

func TestPartialReductionNative(t *testing.T) {
	// gogen must emit it; toolchain round-trip happens in gogen tests.
	c, err := driver.Compile(partial, driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, _, err := vm.Run(c.LIR, vm.Options{Out: &out}); err != nil {
		t.Fatal(err)
	}
}
