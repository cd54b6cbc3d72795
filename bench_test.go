// Package repro's root benchmarks time the engine — compilation, the
// fusion pass, the VM, and the lazy runtime's steady state — and run
// the ablations DESIGN.md §7 cites, each reporting its comparison via
// b.ReportMetric. The paper's tables and figures are regenerated by
// cmd/experiments and byte-pinned by TestResultsGolden
// (internal/harness); wall-clock timing lives in bench/.
package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/backend"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/programs"
	"repro/internal/vm"
	"repro/zpl"
)

func BenchmarkCompileTomcatv(b *testing.B) {
	bench, _ := programs.ByName("tomcatv")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Compile(bench.Source, driver.Options{Level: core.C2F3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusionForContraction(b *testing.B) {
	bench, _ := programs.ByName("sp")
	c, err := driver.Compile(bench.Source, driver.Options{Level: core.Baseline})
	if err != nil {
		b.Fatal(err)
	}
	blocks := c.AIR.AllBlocks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			g := asdg.Build(blk.Stmts)
			core.FusionForContraction(g, nil, core.AllArrays(g))
		}
	}
}

func BenchmarkVMStencil(b *testing.B) {
	bench, _ := programs.ByName("simple")
	c, err := driver.Compile(bench.Source, driver.Options{
		Level: core.C2F3, Configs: map[string]int64{"n": 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vm.Run(c.LIR, vm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVMTraced(b *testing.B) {
	bench, _ := programs.ByName("simple")
	co := comm.DefaultOptions(16)
	c, err := driver.Compile(bench.Source, driver.Options{
		Level: core.C2F3, Configs: map[string]int64{"n": 64}, Comm: &co,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := machine.NewCostTracer(machine.T3E(), 16)
		if _, _, err := vm.Run(c.LIR, vm.Options{Tracer: tr}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRealign quantifies the temporary-realignment pass
// (DESIGN.md ablation): fragment 8 with and without it.
func BenchmarkAblationRealign(b *testing.B) {
	fr := programs.Fragments()[7]
	with := core.ZPLEmulation()
	without := with
	without.Realign = false
	for i := 0; i < b.N; i++ {
		_, planW, err := harness.CompileEmulated(fr.Source, with, nil)
		if err != nil {
			b.Fatal(err)
		}
		_, planWo, err := harness.CompileEmulated(fr.Source, without, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(planW.Contracted)), "contracted-with-realign")
		b.ReportMetric(float64(len(planWo.Contracted)), "contracted-without")
	}
}

// BenchmarkAblationKillAwareDeps quantifies the §4.1 live-range
// footnote: without kill-aware dependence computation, dependences
// span redefinitions. On both the paper benchmarks and a seeded
// random corpus the greedy algorithm happens to reach the same
// contraction decisions either way (the phantom dependences carry
// vectors that the fused clusters could absorb); the precision shows
// up as dependence-graph size, which bounds every O(e) pass of Fig. 3.
func BenchmarkAblationKillAwareDeps(b *testing.B) {
	srcs := make([]string, 0, 24)
	for seed := int64(0); seed < 24; seed++ {
		srcs = append(srcs, randomRedefProgram(rand.New(rand.NewSource(seed))))
	}
	for i := 0; i < b.N; i++ {
		precise, naive := 0, 0
		edgesPrecise, edgesNaive := 0, 0
		for _, src := range srcs {
			c, err := driver.Compile(src, driver.Options{Level: core.Baseline})
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range c.AIR.AllBlocks() {
				g := asdg.Build(blk.Stmts)
				_, cp := core.FusionForContraction(g, nil, core.AllArrays(g))
				precise += len(cp)
				edgesPrecise += len(g.Edges)
				gn := asdg.BuildWith(blk.Stmts, dep.ComputeNaive)
				_, cn := core.FusionForContraction(gn, nil, core.AllArrays(gn))
				naive += len(cn)
				edgesNaive += len(gn.Edges)
			}
		}
		b.ReportMetric(float64(precise), "contractions-kill-aware")
		b.ReportMetric(float64(naive), "contractions-naive")
		b.ReportMetric(float64(edgesPrecise), "dep-edges-kill-aware")
		b.ReportMetric(float64(edgesNaive), "dep-edges-naive")
	}
}

// randomRedefProgram emits straight-line blocks that redefine arrays
// and read them at varying offsets — the pattern where kill-awareness
// changes the dependence graph.
func randomRedefProgram(r *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("program redef;\nconfig n : integer = 12;\nregion R = [1..n, 1..n];\nregion I = [2..n-1, 2..n-1];\n")
	names := []string{"A", "B", "C", "D", "E"}
	sb.WriteString("var A, B, C, D, E : [R] double;\nvar s : double;\nproc main()\nbegin\n")
	for _, nm := range names {
		fmt.Fprintf(&sb, "  [R] %s := index1 * 0.5 + index2;\n", nm)
	}
	sb.WriteString("  for it := 1 to 1 do\n")
	for i := 0; i < 10; i++ {
		tgt := names[r.Intn(len(names))]
		src := names[r.Intn(len(names))]
		for src == tgt {
			src = names[r.Intn(len(names))]
		}
		reg := "R"
		off := ""
		if r.Intn(2) == 0 {
			reg = "I"
			off = fmt.Sprintf("@(%d,%d)", r.Intn(3)-1, r.Intn(3)-1)
			if off == "@(0,0)" {
				off = ""
			}
		}
		fmt.Fprintf(&sb, "    [%s] %s := %s%s * 0.5;\n", reg, tgt, src, off)
	}
	sb.WriteString("  end;\n  s := +<< [R] A + B + C + D + E;\n  writeln(s);\nend;\n")
	return sb.String()
}

// BenchmarkAblationInterprocSummaries quantifies call-effect
// summaries: with them stripped (calls as full barriers), fusion
// across calls disappears.
func BenchmarkAblationInterprocSummaries(b *testing.B) {
	src := `
program ablate;
region R = [1..32];
var A, T, B, U, C : [R] double;
var z : double;
proc pure(x : double) : double
begin
  return x * 2.0;
end;
proc main()
begin
  [R] A := 1.0;
  [R] T := A + 1.0;
  z := pure(3.0);
  [R] B := T + A;
  z := pure(z);
  [R] U := B * 2.0;
  [R] C := U + B;
end;
`
	for i := 0; i < b.N; i++ {
		with, err := driver.Compile(src, driver.Options{Level: core.C2})
		if err != nil {
			b.Fatal(err)
		}
		without, err := driver.Compile(src, driver.Options{Level: core.C2})
		if err != nil {
			b.Fatal(err)
		}
		// Strip summaries, replan.
		for _, blk := range without.AIR.AllBlocks() {
			for _, s := range blk.Stmts {
				if cs, ok := s.(*air.CallStmt); ok {
					cs.Effects = nil
				}
			}
		}
		for name := range without.AIR.Arrays {
			without.AIR.Arrays[name].Contracted = false
		}
		plan := core.ApplyEx(without.AIR, core.C2, core.Config{})
		b.ReportMetric(float64(len(with.Plan.Contracted)), "contractions-with-summaries")
		b.ReportMetric(float64(len(plan.Contracted)), "contractions-without")
	}
}

// BenchmarkAblationScalarReplacement quantifies the §6 related-work
// technique on the benchmarks: accesses removed by loading repeated
// per-iteration reads once.
func BenchmarkAblationScalarReplacement(b *testing.B) {
	bench, _ := programs.ByName("tomcatv")
	cfg := map[string]int64{"n": 48}
	for i := 0; i < b.N; i++ {
		tally := func(sr bool) float64 {
			c, err := driver.Compile(bench.Source, driver.Options{
				Level: core.C2F3, Configs: cfg, ScalarReplace: sr,
			})
			if err != nil {
				b.Fatal(err)
			}
			tr := machine.NewCostTracer(machine.T3E(), 1)
			if _, _, err := vm.Run(c.LIR, vm.Options{Tracer: tr}); err != nil {
				b.Fatal(err)
			}
			return float64(tr.AccessCount)
		}
		plain := tally(false)
		srep := tally(true)
		b.ReportMetric(plain, "accesses-plain")
		b.ReportMetric(srep, "accesses-scalar-replaced")
		b.ReportMetric((plain/srep-1)*100, "pct-accesses-saved")
	}
}

// BenchmarkLazySteadyState measures the zpl lazy runtime's cached
// steady state: one double-buffered Jacobi sweep per iteration, every
// Eval after the warm-up a pure fingerprint hit. The reported metrics
// are the property EXPERIMENTS.md states for the fingerprint cache: zero
// compilations inside the timed loop however long it runs, hit rate 1
// per iteration.
func BenchmarkLazySteadyState(b *testing.B) {
	const n = 32
	ctx := zpl.New(zpl.Config{Level: core.C2F4S})
	full := zpl.R(1, n, 1, n)
	inner := zpl.R(2, n-1, 2, n-1)
	cur := ctx.Array("cur", full)
	nxt := ctx.Array("nxt", full)
	res := ctx.Scalar("res", 0)
	cur.Assign(nil, zpl.Mul(zpl.Index(1), zpl.Index(1)))
	nxt.Assign(nil, zpl.Mul(zpl.Index(1), zpl.Index(1)))
	if err := ctx.Eval(); err != nil {
		b.Fatal(err)
	}
	sweep := func() {
		nxt.Assign(inner, zpl.Mul(zpl.Const(0.25),
			zpl.Add(zpl.Add(cur.At(-1, 0), cur.At(1, 0)),
				zpl.Add(cur.At(0, -1), cur.At(0, 1)))))
		res.MaxOf(inner, zpl.Abs(zpl.Sub(nxt, cur)))
		cur, nxt = nxt, cur
	}
	sweep()
	if err := ctx.Eval(); err != nil { // compile once, outside the timer
		b.Fatal(err)
	}
	warm := ctx.CacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
		if err := ctx.Eval(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := ctx.CacheStats().Sub(warm)
	if d.Misses != 0 {
		b.Fatalf("steady state recompiled %d times", d.Misses)
	}
	b.ReportMetric(float64(d.Misses), "compilations")
	b.ReportMetric(float64(d.Hits)/float64(b.N), "hit-rate")
}

// BenchmarkLazyLarge is the lazy-large workload's VM Eval without the
// bench harness: bench/w_lazy.go's damped double-buffered Jacobi sweep
// at n=512 (a fresh Temp for the average every sweep, a max<< residual),
// steady state, so that an Eval is the kernel over two 2 MiB grids plus
// the seed of nxt's frame: cur is bound and nxt swapped in.
// BenchmarkLazyLargeNative is the same sweep's native Eval, on the
// compilation's resident worker, whose mapping holds both grids between
// Evals.
func BenchmarkLazyLarge(b *testing.B) { benchLazyLarge(b, zpl.Config{Level: core.C2F4S}) }

func BenchmarkLazyLargeNative(b *testing.B) {
	if !backend.Available() {
		b.Skip("no go toolchain")
	}
	benchLazyLarge(b, zpl.Config{Level: core.C2F4S, Backend: zpl.BackendGo, ArtifactDir: b.TempDir()})
}

func benchLazyLarge(b *testing.B, cfg zpl.Config) {
	const n = 512
	ctx := zpl.New(cfg)
	defer ctx.Close()
	full, inner := zpl.R(1, n, 1, n), zpl.R(2, n-1, 2, n-1)
	cur, nxt := ctx.Array("cur", full), ctx.Array("nxt", full)
	res := ctx.Scalar("res", 0)
	cur.Assign(nil, zpl.Mul(zpl.Index(1), zpl.Index(1)))
	nxt.Assign(nil, zpl.Mul(zpl.Index(1), zpl.Index(1)))
	if err := ctx.Eval(); err != nil {
		b.Fatal(err)
	}
	sweep := func() {
		avg := ctx.Temp("avg", full)
		avg.Assign(inner, zpl.Mul(zpl.Const(0.25),
			zpl.Add(zpl.Add(cur.At(-1, 0), cur.At(1, 0)), zpl.Add(cur.At(0, -1), cur.At(0, 1)))))
		nxt.Assign(inner, zpl.Add(cur, zpl.Mul(zpl.Const(0.8), zpl.Sub(avg, cur))))
		res.MaxOf(inner, zpl.Abs(zpl.Sub(nxt, cur)))
		cur, nxt = nxt, cur
		if err := ctx.Eval(); err != nil {
			b.Fatal(err)
		}
	}
	sweep() // compile once, outside the timer
	warm := ctx.CacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	if d := ctx.CacheStats().Sub(warm); d.Misses != 0 {
		b.Fatalf("steady state recompiled %d times", d.Misses)
	}
}
