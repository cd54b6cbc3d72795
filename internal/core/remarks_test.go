package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/remark"
	"repro/internal/sema"
	"repro/internal/source"
)

// lowerBench compiles one built-in benchmark to AIR.
func lowerBench(t *testing.T, name string) *sema.Info {
	t.Helper()
	b, ok := programs.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	var errs source.ErrorList
	prog := parser.Parse(b.Source, &errs)
	if errs.HasErrors() {
		t.Fatal(errs.Err())
	}
	info := sema.Check(prog, nil, &errs)
	if errs.HasErrors() {
		t.Fatal(errs.Err())
	}
	return info
}

// TestRemarksCarryPositions is the regression test for the lowering
// position gaps: every remark of every benchmark at every level must
// anchor to a real source position — a zero Pos means some statement
// was constructed without one.
func TestRemarksCarryPositions(t *testing.T) {
	for _, b := range programs.All() {
		info := lowerBench(t, b.Name)
		for _, lvl := range AllLevels() {
			var errs source.ErrorList
			prog := lower.Lower(info, &errs)
			if errs.HasErrors() {
				t.Fatal(errs.Err())
			}
			plan := ApplyEx(prog, lvl, Config{})
			for _, r := range plan.Remarks() {
				if !r.Pos.IsValid() {
					t.Errorf("%s at %s: remark without position: %s", b.Name, lvl, r)
				}
				if r.Edge != nil && (!r.Edge.FromPos.IsValid() || !r.Edge.ToPos.IsValid()) {
					t.Errorf("%s at %s: edge witness without positions: %s", b.Name, lvl, r)
				}
			}
		}
	}
}

// TestDiagnosisAgreesWithPredicates pins the single-implementation
// property: the boolean legality predicates are wrappers over the
// diagnosing versions, so a remark can never contradict the decision
// it explains. Checked over the final partitions of every benchmark.
func TestDiagnosisAgreesWithPredicates(t *testing.T) {
	for _, b := range programs.All() {
		info := lowerBench(t, b.Name)
		var errs source.ErrorList
		prog := lower.Lower(info, &errs)
		if errs.HasErrors() {
			t.Fatal(errs.Err())
		}
		plan := ApplyEx(prog, C2F3, Config{})
		for _, bp := range plan.Blocks {
			p := bp.Part
			for _, c := range p.Clusters() {
				cs := map[int]bool{c: true}
				if got, want := diagnoseFusion(p, cs).OK, FusionOK(p, cs); got != want {
					t.Errorf("%s: diagnoseFusion=%v but FusionOK=%v for cluster %d",
						b.Name, got, want, c)
				}
			}
			for _, x := range bp.Candidates {
				cs := p.ClustersReferencing(x)
				if len(cs) == 0 {
					continue
				}
				for d := range p.Grow(cs) {
					cs[d] = true
				}
				if got, want := diagnoseContraction(p, x, cs).OK, ContractionOK(p, x, cs); got != want {
					t.Errorf("%s: diagnoseContraction=%v but ContractionOK=%v for %s",
						b.Name, got, want, x)
				}
			}
		}
	}
}

// TestPlanRemarksConcurrent renders one plan's remarks from eight
// goroutines at once, as concurrent zpld requests may read a cached
// compilation's: rendering must leave the plan untouched (run it under
// -race), and every rendering must equal a serial one.
func TestPlanRemarksConcurrent(t *testing.T) {
	var errs source.ErrorList
	prog := lower.Lower(lowerBench(t, "sp"), &errs)
	if errs.HasErrors() {
		t.Fatal(errs.Err())
	}
	plan := ApplyEx(prog, C2F4, Config{})
	want := plan.Remarks()
	if len(want) == 0 {
		t.Fatal("sp at c2+f4 has no remarks")
	}
	got := make([][]remark.Remark, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = plan.Remarks()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Errorf("goroutine %d: rendering differs from the serial one", i)
		}
	}
}

// TestRemarkStringRendersEvidence pins the diagnostic line format the
// CLIs print: kind, subject, failed test, and the blocking edge.
func TestRemarkStringRendersEvidence(t *testing.T) {
	r := remark.Remark{
		Kind: remark.NotContracted, Block: 1, Array: "T",
		Pos:  source.Pos{Line: 4, Col: 2},
		Test: remark.TestNullVector, Reason: "non-null vector",
		Edge: &remark.Edge{From: 0, To: 2, Var: "T", Vector: "(0,1)", Dep: "flow"},
	}
	s := r.String()
	for _, want := range []string{"not-contracted T", "[def6-null-vector]", "on T, vector (0,1), flow dep"} {
		if !contains(s, want) {
			t.Errorf("remark string missing %q: %s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
