package check_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/check"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/programs"
)

var levels = []core.Level{core.Baseline, core.C1, core.C2, core.C2F3, core.C2F4}

func testdataSources(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.za"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	out := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = string(b)
	}
	return out
}

// TestVerifierCleanSequential: every benchmark, fragment, and testdata
// program must verify clean at every optimization level.
func TestVerifierCleanSequential(t *testing.T) {
	srcs := map[string]string{}
	for _, b := range programs.All() {
		srcs["bench/"+b.Name] = b.Source
	}
	for _, f := range programs.Fragments() {
		srcs["fragment/"+f.Title] = f.Source
	}
	for name, src := range testdataSources(t) {
		srcs["testdata/"+name] = src
	}
	for name, src := range srcs {
		for _, lvl := range levels {
			if _, err := driver.Compile(src, driver.Options{Level: lvl, Check: true}); err != nil {
				t.Errorf("%s at %v: %v", name, lvl, err)
			}
		}
	}
}

// TestVerifierCleanDistributed: the same corpus with communication
// inserted must verify clean, including the comm-schedule pass.
func TestVerifierCleanDistributed(t *testing.T) {
	srcs := map[string]string{}
	for _, b := range programs.All() {
		srcs["bench/"+b.Name] = b.Source
	}
	for name, src := range testdataSources(t) {
		srcs["testdata/"+name] = src
	}
	for name, src := range srcs {
		for _, lvl := range []core.Level{core.Baseline, core.C2F3} {
			co := comm.DefaultOptions(4)
			if _, err := driver.Compile(src, driver.Options{Level: lvl, Comm: &co, Check: true}); err != nil {
				t.Errorf("%s at %v p=4: %v", name, lvl, err)
			}
		}
	}
}

func mustCompileTestdata(t *testing.T, name string, opt driver.Options) *driver.Compilation {
	t.Helper()
	src := testdataSources(t)[name]
	if src == "" {
		t.Fatalf("testdata %s missing", name)
	}
	c, err := driver.Compile(src, opt)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return c
}

func requirePositioned(t *testing.T, pass string, reps []check.Report) {
	t.Helper()
	if len(reps) == 0 {
		t.Fatalf("%s: seeded bug produced no reports", pass)
	}
	positioned := false
	for _, r := range reps {
		if r.Pass != pass {
			t.Errorf("report from pass %s, want %s: %s", r.Pass, pass, r)
		}
		if r.Pos.IsValid() {
			positioned = true
		}
	}
	if !positioned {
		t.Errorf("%s: no report carries a source position:\n%s", pass, reportDump(reps))
	}
}

func reportDump(reps []check.Report) string {
	var b strings.Builder
	for _, r := range reps {
		b.WriteString("  " + r.String() + "\n")
	}
	return b.String()
}

// TestSeededDistanceVectorCorruption: perturbing one unconstrained
// distance vector in the optimizer's ASDG must be caught by the
// cross-check with a positioned diagnostic.
func TestSeededDistanceVectorCorruption(t *testing.T) {
	c := mustCompileTestdata(t, "heat.za", driver.Options{Level: core.C2})
	corrupted := false
outer:
	for _, bp := range c.Plan.Blocks {
		if bp.Graph == nil {
			continue
		}
		for ei := range bp.Graph.Edges {
			for ii := range bp.Graph.Edges[ei].Items {
				it := &bp.Graph.Edges[ei].Items[ii]
				if it.Vector && len(it.U) > 0 {
					it.U[0]++
					corrupted = true
					break outer
				}
			}
		}
	}
	if !corrupted {
		t.Fatal("no vectored edge found to corrupt")
	}
	requirePositioned(t, check.PassASDG, check.ASDGCrossCheck(c.AIR, c.Plan))
}

// TestSeededIllegalFusion: forcing two clusters joined by a non-null
// flow dependence into one cluster must be rejected by the fusion
// audit.
func TestSeededIllegalFusion(t *testing.T) {
	c := mustCompileTestdata(t, "fig2.za", driver.Options{Level: core.Baseline})
	merged := false
outer:
	for _, bp := range c.Plan.Blocks {
		if bp.Graph == nil || bp.Part == nil {
			continue
		}
		for _, e := range bp.Graph.Edges {
			for _, it := range e.Items {
				if it.Vector && it.Kind == dep.Flow && !it.U.IsZero() &&
					bp.Graph.IsFusible(e.From) && bp.Graph.IsFusible(e.To) {
					bp.Part.MergeSet(map[int]bool{
						bp.Part.ClusterOf(e.From): true,
						bp.Part.ClusterOf(e.To):   true,
					})
					merged = true
					break outer
				}
			}
		}
	}
	if !merged {
		t.Fatal("no non-null flow dependence between fusible statements found")
	}
	requirePositioned(t, check.PassFusion, check.FusionLegality(c.AIR, c.Plan))
}

// TestSeededBogusContraction: marking an array contracted whose live
// range escapes its block must be rejected by the contraction audit.
func TestSeededBogusContraction(t *testing.T) {
	c := mustCompileTestdata(t, "heat.za", driver.Options{Level: core.Baseline})
	const victim = "T" // referenced in several blocks of heat.za
	if c.AIR.Arrays[victim] == nil {
		t.Fatalf("array %s missing", victim)
	}
	c.Plan.Contracted[victim] = true
	c.AIR.Arrays[victim].Contracted = true
	bp := c.Plan.Blocks[0]
	bp.Contracted = append(bp.Contracted, victim)
	requirePositioned(t, check.PassContraction, check.ContractionSafety(c.AIR, c.Plan))
}

// TestSeededDroppedExchange: deleting one receive from a distributed
// compilation must be caught by the comm-schedule pass before any
// distributed run.
func TestSeededDroppedExchange(t *testing.T) {
	co := comm.DefaultOptions(4)
	c := mustCompileTestdata(t, "heat.za", driver.Options{Level: core.C2F3, Comm: &co})
	dropped := false
	var drop func(nodes []lir.Node) []lir.Node
	drop = func(nodes []lir.Node) []lir.Node {
		var out []lir.Node
		for _, nd := range nodes {
			switch x := nd.(type) {
			case *lir.Comm:
				if !dropped && x.Phase == air.CommRecv {
					dropped = true
					continue
				}
			case *lir.Loop:
				x.Body = drop(x.Body)
			case *lir.While:
				x.Body = drop(x.Body)
			case *lir.If:
				x.Then = drop(x.Then)
				x.Else = drop(x.Else)
			}
			out = append(out, nd)
		}
		return out
	}
	for _, p := range c.LIR.Procs {
		p.Body = drop(p.Body)
	}
	if !dropped {
		t.Fatal("no pipelined receive found to drop")
	}
	requirePositioned(t, check.PassComm, check.CommSchedule(c.AIR, c.LIR, true))
}

// TestSeededMalformedAIR: corrupting a lowered statement must be
// caught by the well-formedness pass.
func TestSeededMalformedAIR(t *testing.T) {
	c := mustCompileTestdata(t, "heat.za", driver.Options{Level: core.Baseline})
	var victim *air.ArrayStmt
	for _, b := range c.AIR.AllBlocks() {
		for _, s := range b.Stmts {
			if x, ok := s.(*air.ArrayStmt); ok {
				victim = x
				break
			}
		}
		if victim != nil {
			break
		}
	}
	if victim == nil {
		t.Fatal("no array statement found")
	}
	victim.LHS = "ghost$undeclared"
	requirePositioned(t, check.PassAIR, check.AIRWellFormed(c.AIR))
}

// TestVerifierRejectsViaDriver: the driver's -check wiring must turn a
// verifier report into a compilation error (exercised with a program
// whose plan we cannot corrupt from outside — so instead assert that
// the clean path truly ran every pass by compiling with Check).
func TestVerifierAcceptsViaDriver(t *testing.T) {
	co := comm.DefaultOptions(4)
	c, err := driver.Compile(testdataSources(t)["heat.za"],
		driver.Options{Level: core.C2F3, Comm: &co, Check: true})
	if err != nil {
		t.Fatalf("clean program rejected: %v", err)
	}
	if c.LIR == nil || c.Plan == nil {
		t.Fatal("compilation artifacts missing")
	}
}

// splitSize is the size at which a one-statement nest over a
// benchmark's main region, or over its interior, does
// absint.SplitWork element-statements.
func splitSize(rank int) int64 {
	if rank == 1 {
		return absint.SplitWork + 2
	}
	return int64(math.Ceil(math.Sqrt(absint.SplitWork))) + 2
}

// TestOuterParallelClean: every nest a resident worker would split, in
// the six benchmarks and heat at every level with n raised above the
// split threshold, is proven free of dependences on its outer loop
// from the plan's ASDG — and there are such nests, in every program.
func TestOuterParallelClean(t *testing.T) {
	heat := testdataSources(t)["heat.za"]
	progs := append(programs.All(), programs.Benchmark{Name: "heat", Source: heat, SizeConfig: "n", Rank: 2})
	for _, p := range progs {
		splits := 0
		for _, lvl := range core.AllLevels() {
			c, err := driver.Compile(p.Source, driver.Options{Level: lvl,
				Configs: map[string]int64{p.SizeConfig: splitSize(p.Rank)}})
			if err != nil {
				t.Fatalf("%s at %v: %v", p.Name, lvl, err)
			}
			if reps := check.OuterParallel(c.Plan, c.LIR, c.Bounds); len(reps) > 0 {
				t.Errorf("%s at %v:\n%s", p.Name, lvl, reportDump(reps))
			}
			if reps := check.All(c.AIR, c.Plan, c.LIR, c.Bounds, 0); len(reps) > 0 {
				t.Errorf("%s at %v, check.All:\n%s", p.Name, lvl, reportDump(reps))
			}
			for _, pr := range c.LIR.Procs {
				for _, n := range lir.Nests(pr.Body) {
					if c.Bounds.Splits(c.LIR, n) {
						splits++
					}
				}
			}
		}
		if splits == 0 {
			t.Errorf("%s: no nest splits at any level: the pass checked nothing", p.Name)
		}
	}
}

// carried's two array statements fuse, under a supplied plan, into one
// nest whose outer loop runs down the rows and carries A's anti
// dependence (u = (-1,0)): row i reads row i-1 of A before it is stored.
const carried = `
program carried;
config n : integer = 8;
region R = [1..n, 1..n];
region I = [2..n, 1..n];
var A, B, C : [R] double;
proc main()
begin
  [I] C := A@(-1, 0) + B;
  [I] A := B + 1.0;
  writeln(max<< [R] C);
end;
`

// TestOuterParallelCatchesCarriedSplit is the pass's seeded fault:
// forcing a split of the nest that carries a dependence on its outer
// loop is reported, positioned, by the outer-parallel pass; and at a
// size above the threshold gogen itself declines to split it.
func TestOuterParallelCatchesCarriedSplit(t *testing.T) {
	fuse := &core.PlanSpec{Version: core.SpecVersion, Blocks: []core.BlockSpec{{Block: 0, Clusters: [][]int{{0, 1}}}}}
	for _, n := range []int64{8, 256} {
		c, err := driver.Compile(carried, driver.Options{Plan: fuse, Configs: map[string]int64{"n": n}})
		if err != nil {
			t.Fatal(err)
		}
		var fused *lir.Nest
		for _, nest := range lir.Nests(c.LIR.Main.Body) {
			if len(nest.Body) == 2 {
				fused = nest
			}
		}
		if fused == nil {
			t.Fatalf("n=%d: the supplied plan fused no nest", n)
		}
		forced := check.OuterParallelOf(c.Plan, c.LIR, c.Bounds, func(x *lir.Nest) bool { return x == fused })
		var carries []check.Report
		for _, r := range forced {
			if strings.Contains(r.Message, "carries (A, (-1,0), anti)") {
				carries = append(carries, r)
			}
		}
		requirePositioned(t, check.PassOuterParallel, carries)
		if c.Bounds.Splits(c.LIR, fused) {
			t.Errorf("n=%d: gogen splits the nest that carries A", n)
		}
		if reps := check.OuterParallel(c.Plan, c.LIR, c.Bounds); len(reps) > 0 {
			t.Errorf("n=%d: gogen's own splits:\n%s", n, reportDump(reps))
		}
	}
}
