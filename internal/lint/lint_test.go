package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/remark"
	"repro/internal/source"
)

// lintOf runs the linter at c2+f3 (the level exercising the most
// contraction machinery) and fails the test on compile errors.
func lintOf(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Run(src, Options{File: "t.za", Level: core.C2F3})
	if err != nil {
		t.Fatalf("lint compile: %v", err)
	}
	return res
}

// rules collects the rule IDs of the findings, preserving multiplicity.
func rules(res *Result) []string {
	var out []string
	for _, f := range res.Findings {
		out = append(out, f.Rule)
	}
	return out
}

func hasRule(res *Result, rule string) bool {
	for _, f := range res.Findings {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

const cleanSrc = `
program clean;
config n : integer = 8;
region R = [1..n, 1..n];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [R] B := A * 2.0;
  s := +<< [R] B;
  writeln("s =", s);
end;
`

func TestCleanProgramHasNoFindings(t *testing.T) {
	res := lintOf(t, cleanSrc)
	if len(res.Findings) != 0 {
		t.Errorf("clean program has findings: %v", rules(res))
	}
}

func TestUnusedAndWriteOnlyArrays(t *testing.T) {
	res := lintOf(t, `
program p;
config n : integer = 8;
region R = [1..n, 1..n];
var A, B, U, W : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [R] B := A * 2.0;
  [R] W := B + 1.0;
  s := +<< [R] B;
  writeln("s =", s);
end;
`)
	if !hasRule(res, RuleUnusedArray) {
		t.Errorf("U never referenced: want %s finding, got %v", RuleUnusedArray, rules(res))
	}
	if !hasRule(res, RuleWriteOnlyArray) {
		t.Errorf("W written but never read: want %s finding, got %v", RuleWriteOnlyArray, rules(res))
	}
}

func TestDeadStmt(t *testing.T) {
	res := lintOf(t, `
program p;
config n : integer = 8;
region R = [1..n, 1..n];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [R] B := A * 2.0;
  [R] B := A * 3.0;
  s := +<< [R] B;
  writeln("s =", s);
end;
`)
	if !hasRule(res, RuleDeadStmt) {
		t.Errorf("first write to B is overwritten unread: want %s, got %v", RuleDeadStmt, rules(res))
	}
}

func TestRegionRules(t *testing.T) {
	res := lintOf(t, `
program p;
config n : integer = 8;
region R = [1..n, 1..n];
region R2 = [1..n, 1..n];
region Never = [1..2, 1..2];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [R2] B := A * 2.0;
  s := +<< [R] B;
  writeln("s =", s);
end;
`)
	if !hasRule(res, RuleRedundantRegn) {
		t.Errorf("R2 duplicates R's bounds: want %s, got %v", RuleRedundantRegn, rules(res))
	}
	if !hasRule(res, RuleUnusedRegion) {
		t.Errorf("Never is never used: want %s, got %v", RuleUnusedRegion, rules(res))
	}
}

func TestShadowedDecl(t *testing.T) {
	res := lintOf(t, `
program p;
config n : integer = 8;
region R = [1..n, 1..n];
var A : [R] double;
var s : double;
proc main()
var s : double;
begin
  [R] A := index1 + index2;
  s := +<< [R] A;
  writeln("s =", s);
end;
`)
	if !hasRule(res, RuleShadowedDecl) {
		t.Errorf("local s shadows global s: want %s, got %v", RuleShadowedDecl, rules(res))
	}
}

func TestOutOfRegionRead(t *testing.T) {
	res := lintOf(t, `
program p;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = (0, 1);
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [R] B := A@east;
  s := +<< [R] B;
  writeln("s =", s);
end;
`)
	if !hasRule(res, RuleOutOfRegion) {
		t.Errorf("A@east reads column n+1: want %s, got %v", RuleOutOfRegion, rules(res))
	}
	for _, f := range res.Findings {
		if f.Rule == RuleOutOfRegion && f.Severity != SevWarning {
			t.Errorf("out-of-region severity = %s, want %s (legal ZA: the allocator widens for halos)",
				f.Severity, SevWarning)
		}
	}
}

func TestFindingsSortedAndPositioned(t *testing.T) {
	res := lintOf(t, `
program p;
config n : integer = 8;
region R = [1..n, 1..n];
region Unused1 = [1..2, 1..2];
region Unused2 = [1..3, 1..3];
var A, B : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [R] B := A * 2.0;
  s := +<< [R] B;
  writeln("s =", s);
end;
`)
	if len(res.Findings) < 2 {
		t.Fatalf("want at least 2 findings, got %v", rules(res))
	}
	for i := 1; i < len(res.Findings); i++ {
		a, b := res.Findings[i-1], res.Findings[i]
		if b.Pos.Before(a.Pos) {
			t.Errorf("findings not sorted by position: %s before %s", a.Pos, b.Pos)
		}
	}
	for _, f := range res.Findings {
		if !f.Pos.IsValid() {
			t.Errorf("finding %s has no source position", f.Rule)
		}
		if f.File != "t.za" {
			t.Errorf("finding file = %q, want t.za", f.File)
		}
	}
}

func TestRemarksIncluded(t *testing.T) {
	res := lintOf(t, cleanSrc)
	if len(res.Remarks) == 0 {
		t.Fatal("no remarks recorded for a fusing program")
	}
	found := false
	for _, r := range res.Remarks {
		if r.Kind == remark.Contracted || r.Kind == remark.Fused {
			found = true
		}
	}
	if !found {
		t.Error("want at least one positive (fused/contracted) remark at c2+f3")
	}
}

func TestEncodeJSONRoundTrip(t *testing.T) {
	res := lintOf(t, cleanSrc)
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, "t.za", res.Findings, res.Remarks); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		File     string          `json:"file"`
		Findings []Finding       `json:"findings"`
		Remarks  []remark.Remark `json:"remarks"`
		Counts   map[string]int  `json:"counts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if doc.File != "t.za" {
		t.Errorf("file = %q", doc.File)
	}
	if len(doc.Remarks) != len(res.Remarks) {
		t.Errorf("remarks: got %d, want %d", len(doc.Remarks), len(res.Remarks))
	}
	// The structured remark fields survive the round trip.
	for i, r := range doc.Remarks {
		orig := res.Remarks[i]
		if r.Kind != orig.Kind || r.Test != orig.Test || r.Array != orig.Array {
			t.Errorf("remark %d changed in round trip: %+v vs %+v", i, r, orig)
		}
		if (r.Edge == nil) != (orig.Edge == nil) {
			t.Errorf("remark %d edge presence changed", i)
		}
		if r.Edge != nil && (r.Edge.Var != orig.Edge.Var || r.Edge.Vector != orig.Edge.Vector || r.Edge.Dep != orig.Edge.Dep) {
			t.Errorf("remark %d edge changed: %+v vs %+v", i, r.Edge, orig.Edge)
		}
	}
}

// TestEncodeSARIFStructure validates the emitted log against the parts
// of the SARIF 2.1.0 schema the tooling ecosystem actually checks:
// version and $schema, tool.driver.rules metadata, and for every
// result a valid ruleId/ruleIndex pair, a level, a message, and a
// physical location.
func TestEncodeSARIFStructure(t *testing.T) {
	res := lintOf(t, `
program p;
config n : integer = 8;
region R = [1..n, 1..n];
region Dup = [1..n, 1..n];
direction east = (0, 1);
var A, B, U : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [Dup] B := A@east;
  s := +<< [R] B;
  writeln("s =", s);
end;
`)
	if len(res.Findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	var buf bytes.Buffer
	if err := EncodeSARIF(&buf, "zpllint", res.Findings); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region *struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("$schema = %q, want a sarif-2.1.0 schema URI", log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "zpllint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) < len(Rules) {
		t.Errorf("driver rules = %d, want at least the %d static rules",
			len(run.Tool.Driver.Rules), len(Rules))
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %+v missing id or shortDescription", r)
		}
	}
	if len(run.Results) != len(res.Findings) {
		t.Errorf("results = %d, want %d", len(run.Results), len(res.Findings))
	}
	for _, r := range run.Results {
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Errorf("result %s: ruleIndex %d out of range", r.RuleID, r.RuleIndex)
			continue
		}
		if got := run.Tool.Driver.Rules[r.RuleIndex].ID; got != r.RuleID {
			t.Errorf("result ruleId %q but rules[%d] = %q", r.RuleID, r.RuleIndex, got)
		}
		switch r.Level {
		case "error", "warning", "note":
		default:
			t.Errorf("result %s: bad level %q", r.RuleID, r.Level)
		}
		if r.Message.Text == "" {
			t.Errorf("result %s: empty message", r.RuleID)
		}
		if len(r.Locations) == 0 || r.Locations[0].PhysicalLocation.ArtifactLocation.URI == "" {
			t.Errorf("result %s: missing physical location", r.RuleID)
		}
	}
}

func TestFromReports(t *testing.T) {
	reports := []check.Report{
		{Pass: "fusion", Severity: source.Error, Pos: source.Pos{Line: 3, Col: 1}, Message: "bad"},
		{Pass: "air", Severity: source.Warning, Message: "odd"},
	}
	fs := FromReports("x.za", reports)
	if len(fs) != 2 {
		t.Fatalf("got %d findings", len(fs))
	}
	if fs[0].Rule != "check/fusion" || fs[0].Severity != SevError || fs[0].File != "x.za" {
		t.Errorf("finding 0 = %+v", fs[0])
	}
	if fs[1].Rule != "check/air" || fs[1].Severity != SevWarning {
		t.Errorf("finding 1 = %+v", fs[1])
	}
}

func TestMaxSeverity(t *testing.T) {
	r := &Result{Findings: []Finding{{Severity: SevNote}, {Severity: SevWarning}}}
	if got := r.MaxSeverity(); got != SevWarning {
		t.Errorf("MaxSeverity = %q, want warning", got)
	}
	if got := (&Result{}).MaxSeverity(); got != "" {
		t.Errorf("empty MaxSeverity = %q, want empty", got)
	}
}

func TestWouldContractFixit(t *testing.T) {
	// B's single consumer reads it at @east: contraction fails Def. 6
	// (ii) on exactly one reference, so the linter must surface the
	// remark's fix-it as a note.
	res := lintOf(t, `
program p;
config n : integer = 8;
region R = [1..n, 1..n];
region Inner = [2..7, 2..7];
direction east = (0, 1);
var A, B, C : [R] double;
var s : double;
proc main()
begin
  [R] A := index1 + index2;
  [R] B := A * 2.0;
  [Inner] C := B@east + 1.0;
  s := +<< [Inner] C;
  writeln("s =", s);
end;
`)
	for _, f := range res.Findings {
		if f.Rule == RuleWouldContract {
			if f.Severity != SevNote {
				t.Errorf("would-contract severity = %s, want note", f.Severity)
			}
			if f.Fixit == "" {
				t.Error("would-contract finding has no fix-it")
			}
			return
		}
	}
	t.Errorf("no %s finding; got %v", RuleWouldContract, rules(res))
}

// TestEvidenceRenderConcurrent is the executable form of "rendering is
// pure": a Compilation is shared by concurrent zpld requests through
// ccache, so wording the provers' evidence — every note of both
// analyzers, and the bounds fingerprint, which is computed on first
// use — from eight goroutines at once must be race-free (make race)
// and give eight identical texts.
func TestEvidenceRenderConcurrent(t *testing.T) {
	b, _ := programs.ByName("tomcatv")
	co := comm.DefaultOptions(2)
	c, err := driver.Compile(b.Source, driver.Options{Level: core.C2F4, Comm: &co})
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 8)
	var wg sync.WaitGroup
	for g := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			for _, f := range append(raceFindings(c.Races, true), boundsFindings(c.Bounds, true)...) {
				fmt.Fprintln(&sb, f)
			}
			texts[g] = sb.String() + c.Bounds.Fingerprint()
		}()
	}
	wg.Wait()
	if n := strings.Count(texts[0], "\n"); n < len(c.Races.Pairs)+len(c.Bounds.Sites) {
		t.Fatalf("%d notes for %d pairs and %d sites", n, len(c.Races.Pairs), len(c.Bounds.Sites))
	}
	for g, text := range texts {
		if text != texts[0] {
			t.Errorf("goroutine %d rendered different evidence:\n%s\nvs\n%s", g, text, texts[0])
		}
	}
}
