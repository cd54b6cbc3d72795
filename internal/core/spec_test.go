package core

import (
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/liveness"
	"repro/internal/lower"
	"repro/internal/programs"
	"repro/internal/source"
)

// lowerFresh lowers one benchmark to a fresh AIR program. Apply and
// ApplySpec both mutate the program (realignment, contraction flags),
// so every application needs its own copy.
func lowerFresh(t *testing.T, name string) *air.Program {
	t.Helper()
	info := lowerBench(t, name)
	var errs source.ErrorList
	prog := lower.Lower(info, &errs)
	if errs.HasErrors() {
		t.Fatal(errs.Err())
	}
	return prog
}

// TestSpecRoundtrip pins the external-plan contract: extracting the
// ladder's plan and re-applying it through ApplySpec reproduces the
// identical partitions and contraction set, for every benchmark at
// every level. This is what makes the ladder "one plan generator
// among several" — its output survives serialization.
func TestSpecRoundtrip(t *testing.T) {
	for _, b := range programs.All() {
		for _, lvl := range AllLevels() {
			progA := lowerFresh(t, b.Name)
			planA := ApplyEx(progA, lvl, Config{})
			spec := Extract(planA)

			progB := lowerFresh(t, b.Name)
			planB, err := ApplySpec(progB, spec, Config{})
			if err != nil {
				t.Fatalf("%s at %s: ApplySpec: %v", b.Name, lvl, err)
			}
			if planB.Level != External {
				t.Errorf("%s at %s: applied level = %s, want external", b.Name, lvl, planB.Level)
			}
			if len(planA.Blocks) != len(planB.Blocks) {
				t.Fatalf("%s at %s: %d blocks vs %d", b.Name, lvl, len(planA.Blocks), len(planB.Blocks))
			}
			for i := range planA.Blocks {
				pa, pb := planA.Blocks[i].Part, planB.Blocks[i].Part
				if pa.String() != pb.String() {
					t.Errorf("%s at %s block %d: partition %s != %s",
						b.Name, lvl, i, pa, pb)
				}
				ca := strings.Join(planA.Blocks[i].Contracted, ",")
				cb := strings.Join(planB.Blocks[i].Contracted, ",")
				if ca != cb {
					t.Errorf("%s at %s block %d: contracted %q != %q",
						b.Name, lvl, i, ca, cb)
				}
			}
			for x := range planA.Contracted {
				if !planB.Contracted[x] {
					t.Errorf("%s at %s: %s contracted by ladder, not by spec", b.Name, lvl, x)
				}
			}
			// Double roundtrip: the re-applied plan extracts to the
			// same canonical spec, hence the same hash.
			if h1, h2 := spec.Hash(), Extract(planB).Hash(); h1 != h2 {
				t.Errorf("%s at %s: spec hash changed across roundtrip: %s vs %s",
					b.Name, lvl, h1[:12], h2[:12])
			}
		}
	}
}

// TestSpecHashCanonical pins the content address: the hash ignores
// provenance notes, member ordering within clusters, and cluster
// ordering within blocks.
func TestSpecHashCanonical(t *testing.T) {
	a := &PlanSpec{Version: 1, Blocks: []BlockSpec{
		{Block: 0, Clusters: [][]int{{0, 1}, {2, 4, 3}}, Contract: []string{"b", "a"}},
	}}
	b := &PlanSpec{Version: 1, Note: "found by beam search", Blocks: []BlockSpec{
		{Block: 0, Clusters: [][]int{{4, 3, 2}, {1, 0}}, Contract: []string{"a", "b"}},
	}}
	if a.Hash() != b.Hash() {
		t.Errorf("hash not canonical: %s vs %s", a.Hash()[:12], b.Hash()[:12])
	}
	c := &PlanSpec{Version: 1, Blocks: []BlockSpec{
		{Block: 0, Clusters: [][]int{{0, 1}}, Contract: []string{"a", "b"}},
	}}
	if a.Hash() == c.Hash() {
		t.Error("different plans share a hash")
	}
}

// TestApplySpecRejects proves a malformed or illegal spec is refused
// with a descriptive error, never silently repaired.
func TestApplySpecRejects(t *testing.T) {
	cases := []struct {
		name string
		spec *PlanSpec
		want string
	}{
		{"out-of-range vertex",
			&PlanSpec{Version: 1, Blocks: []BlockSpec{{Block: 0, Clusters: [][]int{{0, 999}}}}},
			"out of range"},
		{"duplicate vertex",
			&PlanSpec{Version: 1, Blocks: []BlockSpec{{Block: 0, Clusters: [][]int{{0, 1}, {1, 2}}}}},
			"two clusters"},
		{"block out of range",
			&PlanSpec{Version: 1, Blocks: []BlockSpec{{Block: 99, Clusters: [][]int{{0, 1}}}}},
			"out of range"},
		{"duplicate block",
			&PlanSpec{Version: 1, Blocks: []BlockSpec{
				{Block: 0, Contract: []string{"x"}}, {Block: 0, Contract: []string{"y"}}}},
			"twice"},
		{"unknown array",
			&PlanSpec{Version: 1, Blocks: []BlockSpec{{Block: 0, Contract: []string{"no_such"}}}},
			"unknown array"},
		{"nil spec", nil, "nil"},
	}
	for _, tc := range cases {
		prog := lowerFresh(t, "frac")
		_, err := ApplySpec(prog, tc.spec, Config{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestApplySpecRejectsIllegalFusion finds, via the remarks engine, a
// cluster pair whose merge genuinely fails a Definition 5 test, then
// submits a spec performing that merge and asserts rejection.
func TestApplySpecRejectsIllegalFusion(t *testing.T) {
	found := false
	for _, b := range programs.All() {
		prog := lowerFresh(t, b.Name)
		plan := ApplyEx(prog, C2F4, Config{})
		for bi, bp := range plan.Blocks {
			for _, r := range plan.Remarks() {
				if r.Block != bi || r.Kind != "not-fused" || r.Pair == nil {
					continue
				}
				if r.Test == "heuristic" || r.Test == "level" || r.Test == "plan" || r.Test == "" {
					continue
				}
				// Rebuild the block's cluster list with the pair merged.
				var clusters [][]int
				merged := append(append([]int(nil),
					bp.Part.Members(r.Pair[0])...), bp.Part.Members(r.Pair[1])...)
				clusters = append(clusters, merged)
				for _, c := range bp.Part.Clusters() {
					if c == r.Pair[0] || c == r.Pair[1] {
						continue
					}
					if ms := bp.Part.Members(c); len(ms) >= 2 {
						clusters = append(clusters, ms)
					}
				}
				spec := &PlanSpec{Version: 1, Blocks: []BlockSpec{{Block: bi, Clusters: clusters}}}
				prog2 := lowerFresh(t, b.Name)
				if _, err := ApplySpec(prog2, spec, Config{}); err == nil {
					t.Errorf("%s block %d: merging {v%d,v%d} (fails %s) was accepted",
						b.Name, bi, r.Pair[0], r.Pair[1], r.Test)
				}
				found = true
			}
		}
		if found {
			return
		}
	}
	t.Error("no genuinely illegal pair found in any benchmark — remark engine regression?")
}

// TestApplySpecRejectsUnsafeContraction asks for contraction of an
// array that liveness excludes.
func TestApplySpecRejectsUnsafeContraction(t *testing.T) {
	prog := lowerFresh(t, "frac")
	cands := liveness.Candidates(prog)
	approved := map[string]bool{}
	for _, xs := range cands {
		for _, x := range xs {
			approved[x] = true
		}
	}
	victim := ""
	for name := range prog.Arrays {
		if !approved[name] {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Skip("every array of frac is a candidate")
	}
	spec := &PlanSpec{Version: 1, Blocks: []BlockSpec{{Block: 0, Contract: []string{victim}}}}
	if _, err := ApplySpec(prog, spec, Config{}); err == nil ||
		!strings.Contains(err.Error(), "liveness") {
		t.Errorf("contracting non-candidate %s: err = %v", victim, err)
	}
}

// TestParseSpec pins the decode contract: unknown fields and future
// versions are rejected at the boundary.
func TestParseSpec(t *testing.T) {
	good := []byte(`{"version":1,"blocks":[{"block":0,"clusters":[[0,1]]}]}`)
	s, err := ParseSpec(good)
	if err != nil || len(s.Blocks) != 1 {
		t.Fatalf("ParseSpec(good) = %v, %v", s, err)
	}
	if _, err := ParseSpec([]byte(`{"version":1,"surprise":true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"version":99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	// An empty cluster has no first member to order by: Hash, which
	// every cache key computes, indexed it.
	for _, clusters := range []string{`[[],[0,1]]`, `[[0,1],null]`} {
		src := `{"version":1,"note":"x","blocks":[{"block":1,"clusters":` + clusters + `}]}`
		if _, err := ParseSpec([]byte(src)); err == nil || !strings.HasPrefix(err.Error(), "plan spec: ") {
			t.Errorf("ParseSpec(%s) = %v, want a plan spec error", src, err)
		}
	}
}
