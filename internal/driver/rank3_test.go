package driver_test

import (
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
)

// rank3 is a 3-D stencil with a contractible temporary and a
// reduction — exercising FIND-LOOP-STRUCTURE, scalarization, the VM,
// and the distributed interpreter beyond the rank-2 benchmarks.
const rank3 = `
program cube;
config n : integer = 8;
region V = [1..n, 1..n, 1..n];
region I = [2..n-1, 2..n-1, 2..n-1];
direction up = (-1, 0, 0); north = (0, -1, 0); west = (0, 0, -1);
var F, G : [V] double;
var T : [V] double;
var s : double;
proc main()
begin
  [V] F := index1 * 1.0 + index2 * 0.1 + index3 * 0.01;
  [V] G := 0.0;
  for it := 1 to 2 do
    [I] T := (F@up + F@north + F@west) / 3.0;
    [I] G := T + F;
    [I] F := F@up + G * 0.125;
    s := +<< [I] G;
  end;
  writeln("cube", s);
end;
`

func TestRank3AllLevels(t *testing.T) {
	for _, lvl := range core.AllLevels() {
		if out := matrix.Check(t, matrix.Program{Name: "cube", Src: rank3}.At(lvl, 0)); !strings.Contains(out, "cube") {
			t.Fatalf("%v: no output: %q", lvl, out)
		}
	}
	// T must contract at c2.
	c, err := driver.Compile(rank3, driver.Options{Level: core.C2})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Plan.Contracted["T"] {
		t.Error("rank-3 temporary not contracted")
	}
}

func TestRank3Distributed(t *testing.T) {
	c := matrix.Program{Name: "cube", Src: rank3}.At(core.C2F3, 0)
	c.Procs = []int{4, 8}
	matrix.Check(t, c)
}

// Rank-3 loop structure: a one-sided dependence in dimension 2 forces
// a reversal there while dims 1 and 3 stay forward.
func TestRank3LoopStructure(t *testing.T) {
	p, ok := core.FindLoopStructure(3, []air.Offset{{0, -1, 0}})
	if !ok {
		t.Fatal("no structure")
	}
	if p[0] != 1 || p[1] != -2 || p[2] != 3 {
		t.Errorf("structure = %v, want (1,-2,3)", p)
	}
}
