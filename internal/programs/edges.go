package programs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sema"
)

// The edge-nest programs: hand-written sources for the loop shapes that
// neither the benchmarks nor Random produce. Both differentials that
// execute a nest in a way of their own draw on them — the VM's
// strip-width test (internal/vm) and the native back end's test against
// the VM (internal/backend) — and both impose further loop structures
// on the compiled nests, so the sources document what each shape is for.

// EdgeSrc exercises what the benchmarks do not: a statement the
// compiler must run with a descending innermost loop (A reads its own
// left neighbour), all four reduction operators, a guarded statement
// fused with a whole-region one, twice-read operands for scalar
// replacement, and partial reductions along each dimension. The tests
// replace the operand of u's reduction, marked by the 77, with the
// constant 0.1 (sema rejects an array-free reduction in source; the
// lazy runtime issues them), which must still be folded once per
// element.
const EdgeSrc = `
program edges;
config m : integer = 5;
config n : integer = 7;
region R = [1..m, 1..n];
region I = [2..m-1, 3..n-1];
region Rows = [1..m, 1..1];
region Cols = [1..1, 1..n];
var A, B, C, T : [R] double;
var RS : [Rows] double;
var CM : [Cols] double;
var s, p, mx, mn, u : double;
proc main()
begin
  [R] A := index1 * 10.0 + index2 * 0.25;
  [R] B := sin(0.3 * index1) + index2;
  for it := 1 to 2 do
    [R] A := A@(0,-1) + 1.0;
    [R] T := A@(0,1) * B + A@(0,1);
    [I] C := T + B@(-1,0) * B@(-1,0);
    [R] B := T * 0.5 - C;
    s := +<< [R] B;
    p := *<< [I] 1.0 + C * 0.001;
    mx := max<< [R] T;
    mn := min<< [I] T - C;
    u := +<< [R] A * 77.0;
  end;
  [Rows] RS := +<< [R] A + B;
  [Cols] CM := max<< [R] A - C;
  writeln(s, p, mx, mn, u);
  s := +<< [Rows] RS;
  p := +<< [Cols] CM;
  writeln(s, p);
end;
`

// GuardSrc is Fig. 5's fragment (8) twice, once along each dimension:
// the contracted T1, T2 (U1, U2) live over a translate of R, so one
// nest holds statements whose guards differ along the strip dimension
// (they clip, and registers written under one guard are read under
// another) and along the outer one (they exclude whole rows).
const GuardSrc = `
program guards;
config m : integer = 5;
config n : integer = 7;
region R = [1..m, 1..n];
var A, B, C, D : [R] double;
var T1, T2 : [1..m, 2..n+1] double;
var U1, U2 : [2..m+1, 1..n] double;
var chk : double;
proc main()
begin
  [R] A := index1 * 0.1 + index2 * 0.01;
  [R] C := index1 * 0.3 - index2 * 0.02;
  for p := 1 to 2 do
    [R] B := A * 0.5 + index2 * 0.001;
    [1..m, 2..n+1] T1 := B;
    [1..m, 2..n+1] T2 := B * index2;
    [R] A := A@(0,1) + T1@(0,1) + T2@(0,1);
    [R] D := C * 0.5;
    [2..m+1, 1..n] U1 := D;
    [2..m+1, 1..n] U2 := D + index1;
    [R] C := C@(1,0) + U1@(1,0) + U2@(1,0);
  end;
  chk := +<< [R] A + B + C + D;
  writeln(chk);
end;
`

// Rank3Src has partial reductions whose collapsed dimension is the
// outermost, the middle and the innermost one.
const Rank3Src = `
program cube;
config n : integer = 4;
region V = [1..n, 1..n+1, 1..n+3];
region D1 = [1..1, 1..n+1, 1..n+3];
region D2 = [1..n, 1..1, 1..n+3];
region D3 = [1..n, 1..n+1, 1..1];
var X : [V] double;
var P1 : [D1] double;
var P2 : [D2] double;
var P3 : [D3] double;
var a, b, c : double;
proc main()
begin
  [V] X := index1 * 100.0 + index2 * 10.0 + index3 * 0.5;
  [D1] P1 := +<< [V] X;
  [D2] P2 := max<< [V] X * 0.5;
  [D3] P3 := min<< [V] X - index3;
  a := +<< [D1] P1;
  b := +<< [D2] P2;
  c := +<< [D3] P3;
  writeln(a, b, c);
end;
`

// PermSrc has no loop-carried dependence inside any nest of its loop
// body (T contracts, A is read-only there, B and C are read where they
// were written), so every loop structure is legal for it and the test
// may impose the ones the partitioner rarely picks.
const PermSrc = `
program perm;
config m : integer = 5;
config n : integer = 8;
region R = [1..m, 1..n];
region I = [2..m-1, 2..n-2];
var A, B, C, T : [R] double;
var s, mx : double;
proc main()
begin
  [R] A := index1 * 10.0 + index2 * 0.25;
  for it := 1 to 1 do
    [R] T := A@(0,1) * 0.5 + A@(1,0) + index2;
    [I] B := T + A@(-1,-1);
    [R] C := T - A * index1;
    s := +<< [R] C + B;
    mx := max<< [I] C * B;
  end;
  writeln(s, mx);
end;
`

// BuiltinSrc calls every entry of sema.Builtins in a nest of its own
// and prints a checksum of each result. The front end has the one table
// of names; the VM and the native emitter each map a name to an
// implementation, so a builtin added to the table and to only one of
// them fails here instead of at a user's first call. B is positive
// (sqrt, log and pow's base stay in their domains); C takes both signs
// and is never zero (sign, abs, floor, ceil see both; mod and atan2
// never divide by zero).
func BuiltinSrc() string {
	names := make([]string, 0, len(sema.Builtins))
	for name := range sema.Builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(`
program builtins;
config m : integer = 5;
config n : integer = 7;
region R = [1..m, 1..n];
var A, B, C : [R] double;
var s : double;
proc main()
begin
  [R] B := 0.25 + index1 * 0.5 + index2 * 0.125;
  [R] C := index1 * 0.75 - index2 * 0.625 + 0.3;
`)
	for _, name := range names {
		arg := "C"
		if name == "sqrt" || name == "log" {
			arg = "B"
		}
		if sema.Builtins[name] == 2 {
			arg = "B, C"
		}
		fmt.Fprintf(&b, "  [R] A := %s(%s);\n  s := +<< [R] A;\n  writeln(\"%s\", s);\n", name, arg, name)
	}
	b.WriteString("end;\n")
	return b.String()
}
