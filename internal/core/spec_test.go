package core

import (
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/comm"
	"repro/internal/liveness"
	"repro/internal/lower"
	"repro/internal/programs"
	"repro/internal/remark"
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
// submits a spec performing that merge and asserts rejection naming
// the remark's test: ApplySpec judges with the predicate the remark
// renders. The FavorComm arm compiles for two processors, where a
// merge across communication segments must be refused as "segment".
func TestApplySpecRejectsIllegalFusion(t *testing.T) {
	favorComm := Config{DisableRealign: true, SegmentFn: comm.Segments}
	for _, arm := range []struct {
		name string
		cfg  Config
		want string // the test some rejection must name; "" for any
	}{
		{"sequential", Config{}, ""},
		{"p=2 favor-comm", favorComm, remark.TestSegment},
	} {
		fresh := func(name string) *air.Program {
			prog := lowerFresh(t, name)
			if arm.cfg.SegmentFn != nil {
				comm.Insert(prog, comm.DefaultOptions(2))
			}
			return prog
		}
		found := false
		for _, b := range programs.All() {
			plan := ApplyEx(fresh(b.Name), C2F4, arm.cfg)
			for _, r := range plan.Remarks() {
				if r.Kind != remark.NotFused || r.Pair == nil {
					continue
				}
				if r.Test == remark.TestHeuristic || r.Test == remark.TestLevel || r.Test == remark.TestPlan || r.Test == "" {
					continue
				}
				// Rebuild the block's cluster list with the pair merged.
				bp := plan.Blocks[r.Block]
				clusters := [][]int{append(bp.Part.Members(r.Pair[0]), bp.Part.Members(r.Pair[1])...)}
				for _, c := range bp.Part.Clusters() {
					if c == r.Pair[0] || c == r.Pair[1] {
						continue
					}
					if ms := bp.Part.Members(c); len(ms) >= 2 {
						clusters = append(clusters, ms)
					}
				}
				spec := &PlanSpec{Version: 1, Blocks: []BlockSpec{{Block: r.Block, Clusters: clusters}}}
				_, err := ApplySpec(fresh(b.Name), spec, arm.cfg)
				if err == nil || !strings.Contains(err.Error(), "["+r.Test+"]") {
					t.Errorf("%s %s block %d: merging {v%d,v%d} (fails %s): err = %v",
						arm.name, b.Name, r.Block, r.Pair[0], r.Pair[1], r.Test, err)
				}
				found = found || arm.want == "" || r.Test == arm.want
			}
			if found {
				break
			}
		}
		if !found {
			t.Errorf("%s: no pair failing %q found in any benchmark — remark engine regression?", arm.name, arm.want)
		}
	}
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

// TestApplySpecNamesUnfusibleStatement pins the detail of a fusible
// refusal on both paths. A not-fused remark closes its pair under GROW,
// so its detail names cycle closure; a supplied plan runs no GROW, so
// ApplySpec's refusal of the same merge says what the statement is.
// tomcatv at p=2 FavorComm has such a pair: {v20 v21}, v20 a receive.
func TestApplySpecNamesUnfusibleStatement(t *testing.T) {
	cfg := Config{DisableRealign: true, SegmentFn: comm.Segments}
	fresh := func() *air.Program {
		prog := lowerFresh(t, "tomcatv")
		comm.Insert(prog, comm.DefaultOptions(2))
		return prog
	}
	plan := ApplyEx(fresh(), C2F4, cfg)
	for _, r := range plan.Remarks() {
		if r.Kind != remark.NotFused || r.Pair == nil || *r.Pair != [2]int{20, 21} {
			continue
		}
		if r.Test != remark.TestFusible || !strings.Contains(r.Detail, "cycle closure (GROW)") {
			t.Errorf("remark on {v20 v21}: test %s, detail %q; want %s and cycle closure", r.Test, r.Detail, remark.TestFusible)
		}
		bp := plan.Blocks[r.Block]
		clusters := [][]int{append(bp.Part.Members(20), bp.Part.Members(21)...)}
		spec := &PlanSpec{Version: 1, Blocks: []BlockSpec{{Block: r.Block, Clusters: clusters}}}
		_, err := ApplySpec(fresh(), spec, cfg)
		if err == nil {
			t.Fatal("merging tomcatv's {v20 v21} at p=2 favor-comm was accepted")
		}
		msg := err.Error()
		for _, want := range []string{"[" + remark.TestFusible + "]", "v20 (line ", ") is not an array statement or a full reduction: recv "} {
			if !strings.Contains(msg, want) {
				t.Errorf("refusal %q does not contain %q", msg, want)
			}
		}
		if strings.Contains(msg, "GROW") {
			t.Errorf("refusal %q blames cycle closure, which a supplied plan does not run", msg)
		}
		return
	}
	t.Fatal("no not-fused remark on tomcatv's {v20 v21} at p=2 favor-comm")
}
