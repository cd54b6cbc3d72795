package sema

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/source"
)

func check(t *testing.T, src string, overrides map[string]int64) (*Info, *source.ErrorList) {
	t.Helper()
	var errs source.ErrorList
	prog := parser.Parse(src, &errs)
	if errs.HasErrors() {
		t.Fatalf("parse errors:\n%s", errs.Error())
	}
	info := Check(prog, overrides, &errs)
	return info, &errs
}

func checkOK(t *testing.T, src string, overrides map[string]int64) *Info {
	t.Helper()
	info, errs := check(t, src, overrides)
	if errs.HasErrors() {
		t.Fatalf("unexpected sema errors:\n%s", errs.Error())
	}
	return info
}

const goodProgram = `
program good;
config n : integer = 8;
config eps : double = 1.0e-6;
region R = [1..n, 1..n];
region Interior = [2..n-1, 2..n-1];
direction north = (-1, 0); south = (1, 0);
var A, B : [R] double;
var mask : [R] boolean;
var s : double;
var count : integer;
proc main()
begin
  [R] A := 1.0;
  [R] B := A@north + A@south * 2.0;
  [Interior] A := B;
  [R] mask := A > B;
  s := +<< [R] A * B;
  count := 0;
  for i := 1 to n do
    count := count + i;
  end;
end;
`

func TestGoodProgram(t *testing.T) {
	info := checkOK(t, goodProgram, nil)
	if got := info.ConfigInt["n"]; got != 8 {
		t.Errorf("n = %d, want 8", got)
	}
	r := info.Regions["R"]
	if r == nil || r.Rank() != 2 || r.Size() != 64 {
		t.Errorf("region R = %v", r)
	}
	in := info.Regions["Interior"]
	if in == nil || in.Lo[0] != 2 || in.Hi[0] != 7 {
		t.Errorf("region Interior = %v", in)
	}
	if d := info.Directions["north"]; d == nil || d.Offsets[0] != -1 || d.Offsets[1] != 0 {
		t.Errorf("direction north = %v", d)
	}
	if a := info.LookupArray("main", "A"); a == nil || a.Elem != ast.Double {
		t.Errorf("array A = %v", a)
	}
}

func TestConfigOverride(t *testing.T) {
	info := checkOK(t, goodProgram, map[string]int64{"n": 100})
	if got := info.ConfigInt["n"]; got != 100 {
		t.Errorf("n = %d, want 100", got)
	}
	if r := info.Regions["R"]; r.Size() != 10000 {
		t.Errorf("R size = %d, want 10000", r.Size())
	}
}

func TestConfigArithmetic(t *testing.T) {
	src := `
program cfg;
config n : integer = 4;
config m : integer = 2*n + 1;
region R = [1..m];
var A : [R] double;
proc main()
begin
  [R] A := 0.0;
end;
`
	info := checkOK(t, src, nil)
	if got := info.ConfigInt["m"]; got != 9 {
		t.Errorf("m = %d, want 9", got)
	}
}

func TestRegionResolution(t *testing.T) {
	info := checkOK(t, goodProgram, nil)
	main := info.Program.Proc("main")
	aa := main.Body[2].(*ast.ArrayAssign) // [Interior] A := B;
	reg := info.StmtRegion[aa]
	if reg == nil || reg.Name != "Interior" {
		t.Errorf("stmt region = %v", reg)
	}
}

func TestExprTypes(t *testing.T) {
	info := checkOK(t, goodProgram, nil)
	main := info.Program.Proc("main")
	// [R] B := A@north + A@south * 2.0  — RHS is array of double.
	aa := main.Body[1].(*ast.ArrayAssign)
	typ := info.ExprType[aa.RHS]
	if !typ.IsArray || typ.Kind != ast.Double {
		t.Errorf("RHS type = %v, want array of double", typ)
	}
	// mask := A > B — array of boolean.
	mk := main.Body[3].(*ast.ArrayAssign)
	typ = info.ExprType[mk.RHS]
	if !typ.IsArray || typ.Kind != ast.Boolean {
		t.Errorf("mask RHS type = %v, want array of boolean", typ)
	}
}

func errorCases() map[string]string {
	return map[string]string{
		"undefined region":       `program p; var A : [R] double; proc main() begin end;`,
		"undefined array":        `program p; region R = [1..4]; proc main() begin [R] Z := 1.0; end;`,
		"undefined variable":     `program p; proc main() begin x := 1; end;`,
		"rank mismatch":          `program p; region R = [1..4]; region S = [1..4,1..4]; var A : [R] double; proc main() begin [S] A := 1.0; end;`,
		"direction rank":         `program p; region R = [1..4,1..4]; direction e = (1); var A : [R] double; proc main() begin [R] A := A@e; end;`,
		"array in scalar ctx":    `program p; region R = [1..4]; var A : [R] double; var s : double; proc main() begin s := A; end;`,
		"assign double to int":   `program p; var i : integer; proc main() begin i := 1.5; end;`,
		"assign to config":       `program p; config n : integer = 4; proc main() begin n := 5; end;`,
		"bool arithmetic":        `program p; var b : boolean; proc main() begin b := true + false; end;`,
		"no main":                `program p; proc helper() begin end;`,
		"empty region":           `program p; region R = [4..1]; var A : [R] double; proc main() begin end;`,
		"duplicate region":       `program p; region R = [1..2]; region R = [1..3]; proc main() begin end;`,
		"duplicate var":          `program p; var x, x : double; proc main() begin end;`,
		"assign to loop var":     `program p; proc main() begin for i := 1 to 3 do i := 5; end; end;`,
		"if on integer":          `program p; var x : integer; proc main() begin if x then end; end;`,
		"writeln array":          `program p; region R = [1..4]; var A : [R] double; proc main() begin writeln(A); end;`,
		"reduce without array":   `program p; region R = [1..4]; var s : double; proc main() begin s := +<< [R] 1.0; end;`,
		"bad builtin arity":      `program p; var s : double; proc main() begin s := sqrt(1.0, 2.0); end;`,
		"undefined proc":         `program p; proc main() begin frobnicate(); end;`,
		"void proc in expr":      `program p; var s : double; proc q() begin end; proc main() begin s := q(); end;`,
		"scalar assign to array": `program p; region R = [1..4]; var A : [R] double; proc main() begin A := 1.0; end;`,
		"nonconst region bound":  `program p; var k : integer; region R = [1..4]; proc main() var B : [1..k] double; begin end;`,
		"main with params":       `program p; proc main(x : integer) begin end;`,
		"return value from void": `program p; proc main() begin return 4; end;`,
		"bool array to double":   `program p; region R = [1..4]; var A : [R] double; proc main() begin [R] A := A > A; end;`,
	}
}

func TestSemaErrors(t *testing.T) {
	for name, src := range errorCases() {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			_, errs := check(t, src, nil)
			if !errs.HasErrors() {
				t.Errorf("no error reported for %s", name)
			}
		})
	}
}

func TestLoopVarScoping(t *testing.T) {
	src := `
program p;
var s : integer;
proc main()
begin
  for i := 1 to 3 do
    for j := 1 to 3 do
      s := s + i * j;
    end;
  end;
  s := s + 1;
end;
`
	checkOK(t, src, nil)

	// i must not be visible after the loop.
	bad := `
program p;
var s : integer;
proc main()
begin
  for i := 1 to 3 do
    s := s + i;
  end;
  s := i;
end;
`
	_, errs := check(t, bad, nil)
	if !errs.HasErrors() {
		t.Error("loop variable leaked out of loop scope")
	}
}

func TestLocalsShadowGlobals(t *testing.T) {
	src := `
program p;
region R = [1..4];
var x : double;
proc main()
var x : integer;
begin
  x := 3;
end;
`
	info := checkOK(t, src, nil)
	s := info.LookupScalar("main", "x")
	if s == nil || s.Type != ast.Integer {
		t.Errorf("local x = %v, want integer", s)
	}
}

func TestConstOffsets(t *testing.T) {
	info := checkOK(t, goodProgram, nil)
	main := info.Program.Proc("main")
	aa := main.Body[1].(*ast.ArrayAssign)
	bin := aa.RHS.(*ast.BinaryExpr)
	at := bin.X.(*ast.AtExpr)
	offs := info.ConstOffsets(at)
	if len(offs) != 2 || offs[0] != -1 || offs[1] != 0 {
		t.Errorf("ConstOffsets(A@north) = %v, want [-1 0]", offs)
	}
}

func TestIntWidensToDouble(t *testing.T) {
	src := `
program p;
var s : double;
proc main()
begin
  s := 1 + 2;
end;
`
	checkOK(t, src, nil)
}

func TestProcCallChecking(t *testing.T) {
	src := `
program p;
var s : double;
proc f(x : double) : double
begin
  return x * 2.0;
end;
proc main()
begin
  s := f(3.0);
end;
`
	info := checkOK(t, src, nil)
	if p := info.Procs["f"]; p == nil || p.Result != ast.Double {
		t.Errorf("proc f = %+v", p)
	}
}

func TestPartialReductionChecks(t *testing.T) {
	good := `
program pr;
config n : integer = 8;
region R = [1..n, 1..n];
region Rows = [1..n, 1..1];
var A : [R] double;
var RS : [Rows] double;
proc main()
begin
  [Rows] RS := +<< [R] A;
end;
`
	checkOK(t, good, nil)

	for name, src := range map[string]string{
		"rank mismatch": `
program pr;
region R = [1..8, 1..8];
region V = [1..8];
var A : [R] double;
var RS : [V] double;
proc main()
begin
  [V] RS := +<< [R] A;
end;
`,
		"uncollapsed dim differs": `
program pr;
region R = [1..8, 1..8];
region W = [1..4, 1..1];
var A : [R] double;
var RS : [W] double;
proc main()
begin
  [W] RS := +<< [R] A;
end;
`,
		"boolean reduce": `
program pr;
region R = [1..8, 1..8];
region Rows = [1..8, 1..1];
var A : [R] double;
var RS : [Rows] double;
proc main()
begin
  [Rows] RS := +<< [R] A > A;
end;
`,
	} {
		_, errs := check(t, src, nil)
		if !errs.HasErrors() {
			t.Errorf("%s: no error reported", name)
		}
	}
}

func TestIndexArrayChecks(t *testing.T) {
	// index2 in a rank-1 statement must be rejected.
	bad := `
program idx;
region V = [1..8];
var A : [V] double;
proc main()
begin
  [V] A := index2 * 1.0;
end;
`
	_, errs := check(t, bad, nil)
	if !errs.HasErrors() {
		t.Error("index2 accepted in rank-1 region")
	}
	// index1 outside array context must be rejected.
	bad2 := `
program idx;
var s : double;
proc main()
begin
  s := index1 * 1.0;
end;
`
	_, errs2 := check(t, bad2, nil)
	if !errs2.HasErrors() {
		t.Error("index1 accepted in scalar context")
	}
	// A declared scalar named index1 shadows the virtual array.
	shadow := `
program idx;
var index1 : double;
proc main()
begin
  index1 := 2.0;
end;
`
	checkOK(t, shadow, nil)
}

// TestAddStorage: 8 bytes an index point, nothing for a region with an
// empty extent (even after extents whose product overflows), and a
// product or a sum past an int64 refused rather than wrapped.
func TestAddStorage(t *testing.T) {
	big := 3037000500 // big*big*8 > 2^63-1
	for _, tc := range []struct {
		name   string
		total  int64
		lo, hi []int
		want   int64
		refuse bool
	}{
		{"rank 0", 0, nil, nil, 8, false},
		{"rank 2", 16, []int{1, 1}, []int{4, 3}, 16 + 96, false},
		{"empty", 16, []int{1, 5}, []int{4, 4}, 16, false},
		{"empty after an overflowing product", 0, []int{1, 1, 1}, []int{big, big, 0}, 0, false},
		{"2^64 points wrap to zero", 0, []int{1, 1}, []int{1 << 32, 1 << 32}, 0, true},
		{"product past an int64", 0, []int{1, 1}, []int{big, big}, 0, true},
		{"sum past an int64", math.MaxInt64 - 8, []int{1}, []int{2}, 0, true},
		{"sum at the edge", math.MaxInt64 - 15, []int{1}, []int{1}, math.MaxInt64 - 7, false},
	} {
		got, err := AddStorage(tc.total, &Region{Lo: tc.lo, Hi: tc.hi})
		if tc.refuse != (err == ErrTooLarge) || got != tc.want {
			t.Errorf("%s: %d, %v; want %d, refused %v", tc.name, got, err, tc.want, tc.refuse)
		}
	}
}
