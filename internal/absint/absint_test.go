package absint_test

// Analyzer-level tests drive the prover through the real pipeline (the
// external test package may import driver; the analyzer itself is
// imported by it), checking verdicts, evidence, guard hulls,
// unsafe detection, fault injection, and fingerprint sensitivity on
// whole programs.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/source"
)

// analyze compiles src (prover on, verifier off) and returns the result.
func analyze(t *testing.T, src string, opt driver.Options) *absint.Result {
	t.Helper()
	c, err := driver.Compile(src, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if c.Bounds == nil {
		t.Fatal("no bounds result")
	}
	return c.Bounds
}

const stencilSrc = `
program stencil;
config n : integer = 10;
region R = [1..n, 1..n];
region In = [2..n-1, 2..n-1];
var A, B : [R] double;
proc main()
begin
  [R] A := 1.0;
  [In] B := (A@(-1,0) + A@(1,0) + A@(0,-1) + A@(0,1)) / 4.0;
end;
`

func TestStencilAllProven(t *testing.T) {
	r := analyze(t, stencilSrc, driver.Options{Level: core.Baseline})
	if !r.AllProven() {
		for _, s := range r.Sites {
			if s.Verdict != absint.ProvenSafe {
				t.Errorf("site %s %s @%s: %s (%s)", s.Proc, s.Array, s.Pos, s.Verdict, s.Reason())
			}
		}
		t.Fatalf("stencil should be fully proven: %d/%d", r.NumProven, len(r.Sites))
	}
	if r.NumUnsafe != 0 || r.NumUnknown != 0 {
		t.Fatalf("counts: proven=%d unknown=%d unsafe=%d", r.NumProven, r.NumUnknown, r.NumUnsafe)
	}
	// The interior reads at offset ±1 must carry evidence inside [1,n]:
	// the @(-1,0) read over [2..n-1] covers rows [1..n-2].
	found := false
	for _, s := range r.Sites {
		if s.Array == "A" && !s.Write && len(s.Index) == 2 &&
			s.Index[0] == absint.Range(1, 8) {
			found = true
		}
	}
	if !found {
		t.Error("no A read with row evidence [1,8] (the @(-1,0) interior read)")
	}
}

func TestBenchmarksFullyProvenAcrossLadder(t *testing.T) {
	for _, b := range programs.All() {
		for _, lvl := range []core.Level{core.Baseline, core.C1, core.C2F4} {
			r := analyze(t, b.Source, driver.Options{
				Level:   lvl,
				Configs: map[string]int64{b.SizeConfig: 16},
			})
			if !r.AllProven() {
				t.Errorf("%s @%s: %d proven, %d unknown, %d unsafe of %d sites",
					b.Name, lvl, r.NumProven, r.NumUnknown, r.NumUnsafe, len(r.Sites))
			}
		}
	}
}

func TestProvenUnsafeIsCompileError(t *testing.T) {
	// The lowering pipeline widens every allocation to cover the static
	// references it sees, so a region-structured out-of-bounds access
	// cannot survive to the prover from well-formed source; ProvenUnsafe
	// guards against allocation-computation bugs. Handcraft an LIR nest
	// whose store region escapes the allocation and check the verdict
	// turns into a positioned error.
	alloc := &sema.Region{Name: "S", Lo: []int{1}, Hi: []int{7}}
	nest := &lir.Nest{
		Region: &sema.Region{Name: "R", Lo: []int{1}, Hi: []int{8}},
		Order:  []int{1},
		Body: []*lir.NestStmt{{
			LHS: "B",
			RHS: &air.ConstExpr{Val: 1},
			Pos: source.Pos{Line: 11, Col: 3},
		}},
	}
	lp := &lir.Program{
		Name: "oob",
		Source: &air.Program{
			Arrays:  map[string]*air.ArrayInfo{"B": {Name: "B", Declared: alloc, Alloc: alloc}},
			Scalars: map[string]*air.ScalarInfo{},
		},
		Procs: map[string]*lir.Proc{"main": {Name: "main", Body: []lir.Node{nest}}},
	}
	r := absint.Analyze(lp)
	if r.NumUnsafe != 1 {
		t.Fatalf("want 1 proven-unsafe site, got %d (proven=%d unknown=%d)",
			r.NumUnsafe, r.NumProven, r.NumUnknown)
	}
	err := r.Err()
	if err == nil {
		t.Fatal("Err() should report the proven-unsafe site")
	}
	if !strings.Contains(err.Error(), "escapes allocation") {
		t.Fatalf("error should name the escape: %v", err)
	}
	if !strings.Contains(err.Error(), "11:3") {
		t.Fatalf("error should carry the statement position: %v", err)
	}
}

// TestReasonWordsEveryCongruence renders hand-built proven sites whose
// flat offsets reach the congruence branches no benchmark cell does
// (every compiled site's innermost dimension varies, so they all read
// "any"): a single element, and a column of a row-major array.
func TestReasonWordsEveryCongruence(t *testing.T) {
	alloc := &sema.Region{Lo: []int{-2, 0}, Hi: []int{3, 4}} // strides 5, 1
	for _, c := range []struct {
		index []absint.Interval
		want  string
	}{
		{[]absint.Interval{absint.ConstInterval(1), absint.ConstInterval(2)},
			"index [1,1]x[2,2] within allocation [-2,3]x[0,4]; flat offset [17,17] stride =17"},
		{[]absint.Interval{absint.Range(-1, 2), absint.ConstInterval(3)},
			"index [-1,2]x[3,3] within allocation [-2,3]x[0,4]; flat offset [8,23] stride 3 mod 5"},
		{[]absint.Interval{absint.ConstInterval(-2), absint.Range(1, 4)},
			"index [-2,-2]x[1,4] within allocation [-2,3]x[0,4]; flat offset [1,4] stride any"},
	} {
		s := &absint.Site{Array: "A", Alloc: alloc, Index: c.index, Verdict: absint.ProvenSafe, FailDim: -1}
		if got := s.Reason(); got != c.want {
			t.Errorf("Reason() = %q\n            want %q", got, c.want)
		}
	}
}

func TestGuardRefinementKeepsPartialRegionSafe(t *testing.T) {
	// The inner statement's region is a strict subset of the fused
	// nest's region at aggressive fusion; the guard hull must shrink
	// the evidence so the offset access stays proven.
	src := `
program guarded;
config n : integer = 12;
region R = [1..n];
region Inner = [2..n];
var A, B : [R] double;
proc main()
begin
  [R] A := 2.0;
  [Inner] B := A@(-1);
end;
`
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		r := analyze(t, src, driver.Options{Level: lvl})
		if !r.AllProven() {
			t.Errorf("@%s: guarded program should be fully proven (%d/%d)",
				lvl, r.NumProven, len(r.Sites))
		}
		for _, s := range r.Sites {
			if s.Array == "A" && !s.Write && s.Verdict == absint.ProvenSafe && len(s.Index) == 1 {
				// The A@(-1) read under the [2..n] guard covers [1,11].
				if s.Index[0] != absint.Range(1, 11) {
					t.Errorf("@%s: A read evidence %s, want [1,11]", lvl, s.Index[0])
				}
			}
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := analyze(t, stencilSrc, driver.Options{Level: core.Baseline})
	same := analyze(t, stencilSrc, driver.Options{Level: core.Baseline})
	if base.Fingerprint() != same.Fingerprint() {
		t.Error("identical analyses should share a fingerprint")
	}
	sized := analyze(t, stencilSrc, driver.Options{
		Level: core.Baseline, Configs: map[string]int64{"n": 20},
	})
	if base.Fingerprint() == sized.Fingerprint() {
		t.Error("different problem sizes should change the fingerprint")
	}
	faulted := analyze(t, stencilSrc, driver.Options{Level: core.Baseline, ProveFault: 1})
	if base.Fingerprint() == faulted.Fingerprint() {
		t.Error("an injected fault should change the fingerprint")
	}
}

func TestInjectedFaultShape(t *testing.T) {
	r := analyze(t, stencilSrc, driver.Options{Level: core.Baseline, ProveFault: 2})
	var f *absint.Site
	for _, s := range r.Sites {
		if s.Faulted {
			if f != nil {
				t.Fatal("more than one faulted site")
			}
			f = s
		}
	}
	if f == nil {
		t.Fatal("no faulted site")
	}
	if f.FaultShift != 1 && f.FaultShift != -1 {
		t.Errorf("fault shift %d, want ±1", f.FaultShift)
	}
	if f.Verdict != absint.ProvenSafe {
		t.Errorf("faulted site keeps its (wrong) proven verdict, got %s", f.Verdict)
	}
	if !strings.Contains(f.Reason(), "FAULT INJECTED") {
		t.Errorf("reason should record the injection: %q", f.Reason())
	}
}

func TestNoProveLeavesBoundsNil(t *testing.T) {
	c, err := driver.Compile(stencilSrc, driver.Options{Level: core.Baseline, NoProve: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Bounds != nil {
		t.Error("NoProve should leave Compilation.Bounds nil")
	}
}

func TestLoopCarriedStatementsProven(t *testing.T) {
	// The Fig. 1 tridiagonal pattern: 1-D row statements carried
	// through a scalar loop. Every site's hull comes from the static
	// 1-D region whatever the loop variable holds, so everything stays
	// proven and reductions over the carriers keep exact evidence.
	src := `
program wave;
config n : integer = 8;
region C = [1..n];
var P, Q : [C] double;
var chk : double;
proc main()
begin
  [C] P := 1.0 / (4.0 + 0.01 * index1);
  for i := 2 to n-1 do
    [C] Q := P * 0.5 + 0.001 * i;
    [C] P := Q;
  end;
  chk := +<< [C] P;
  writeln("wave", chk);
end;
`
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		r := analyze(t, src, driver.Options{Level: lvl, Check: true})
		if !r.AllProven() {
			for _, s := range r.Sites {
				t.Logf("site %s %s: %s (%s)", s.Proc, s.Array, s.Verdict, s.Reason())
			}
			t.Fatalf("@%s: wavefront should be fully proven (%d/%d)", lvl, r.NumProven, len(r.Sites))
		}
	}
}

// flowSrc places the same statements — Fig. 5's fragment (8), whose
// fusion over a translate of R guards both stores, a stencil read, and
// a partial reduction — on the same source lines under whatever scalar
// control flow the two %s lines open and close.
const flowSrc = `
program flow;
config m : integer = 5;
config n : integer = 7;
region R = [1..m, 1..n];
region Rows = [1..m, 1..1];
var A, B, C : [R] double;
var T : [1..m, 2..n+1] double;
var RS : [Rows] double;
var s, t, k : double;
proc bump()
begin
  s := s + 1.0;
end;
proc main()
begin
  [R] A := index1 * 10.0 + index2 * 0.25;
  s := 0.0;
  t := 2.0;
  k := max<< [R] A;
  writeln(k);
  %s
    [R] B := A * 0.5 + index2 * 0.001;
    [1..m, 2..n+1] T := B;
    [R] C := A@(0,1) + T@(0,1);
    [Rows] RS := +<< [R] C + A@(0,1);
  %s
  s := +<< [Rows] RS;
  writeln(s);
end;
`

// TestVerdictsIgnoreScalarFlow states the invariant the prover rests
// on: a site's index set is its static region (met with its guard) plus
// its constant offset, so no scalar control flow around a nest — a
// counted loop whose bound is a reduction's result, a while, an if, a
// call that may write every global — changes any site. A language
// extension that lets a region or an offset depend on a scalar must
// fail here before it can ship an unchecked access.
func TestVerdictsIgnoreScalarFlow(t *testing.T) {
	contexts := []struct{ name, open, close string }{
		{"top", "", ""},
		{"for", "for i := 1 to mod(k, 3) do", "end;"},
		{"while", "while s < t do", "s := s + 1.0; end;"},
		{"if", "if k > 0.0 then", "end;"},
		{"call", "bump();", ""},
	}
	var want []string
	for _, cx := range contexts {
		c, err := driver.Compile(fmt.Sprintf(flowSrc, cx.open, cx.close), driver.Options{Level: core.C2F4})
		if err != nil {
			t.Fatalf("%s: %v", cx.name, err)
		}
		guarded := false
		for _, n := range lir.Nests(c.LIR.Procs["main"].Body) {
			for _, st := range n.Body {
				guarded = guarded || st.Guard != nil
			}
		}
		if !guarded {
			t.Fatalf("%s: no guarded statement in the compiled nests", cx.name)
		}
		var got []string
		for _, s := range c.Bounds.Sites {
			got = append(got, fmt.Sprintf("%d %s %s %s%v write=%t %s %v: %s",
				s.ID, s.Proc, s.Pos, s.Array, s.Off, s.Write, s.Verdict, s.Index, s.Reason()))
		}
		if !c.Bounds.AllProven() {
			t.Errorf("%s: %d of %d sites proven", cx.name, c.Bounds.NumProven, len(got))
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d sites, %d at top level", cx.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: site differs from the top-level one:\n got %s\nwant %s", cx.name, got[i], want[i])
			}
		}
	}
}

// lirOf is the sequential c2+f4 LIR of one benchmark: what the
// sequential cells of bench/'s compile workload prove.
func lirOf(tb testing.TB, name string) *lir.Program {
	tb.Helper()
	b, ok := programs.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	c, err := driver.Compile(b.Source, driver.Options{Level: core.C2F4, NoProve: true})
	if err != nil {
		tb.Fatal(err)
	}
	return c.LIR
}

var sink *absint.Result

// BenchmarkAnalyze is absint.prove_ms without the harness: ns and
// allocations per analysis of each benchmark.
func BenchmarkAnalyze(b *testing.B) {
	for _, p := range programs.All() {
		lp := lirOf(b, p.Name)
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = absint.Analyze(lp)
			}
		})
	}
}

// TestAnalyzeAllocs is the guard that the analysis words nothing and
// stores nothing it can render: an all-proven program costs its sites
// and their hulls (sp: 437). One Reason per site and an Fprintf'd
// fingerprint, as the analyzer produced until PR 19, cost sp about
// 5,000 more; an eager flat offset per proven site, until PR 25, 119.
func TestAnalyzeAllocs(t *testing.T) {
	const ceiling = 500
	lp := lirOf(t, "sp")
	if got := testing.AllocsPerRun(5, func() { sink = absint.Analyze(lp) }); got > ceiling {
		t.Errorf("absint.Analyze on sp c2+f4: %.0f allocations, ceiling %d", got, ceiling)
	}
	if !sink.AllProven() {
		t.Fatalf("sp: %d of %d sites proven", sink.NumProven, len(sink.Sites))
	}
}
