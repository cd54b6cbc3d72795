package tune

import (
	"context"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/machine"
	"repro/internal/programs"
)

func commOptions(p int) comm.Options { return comm.DefaultOptions(p) }

// smallConfigs shrinks each benchmark so VM runs stay fast.
func smallConfigs(b programs.Benchmark) map[string]int64 {
	size := int64(24)
	if b.Rank == 1 {
		size = 256
	}
	return map[string]int64{b.SizeConfig: size}
}

// TestTunedNeverWorseThanHeuristic is the core guarantee: across all
// six benchmarks and both cost models, the tuned score is never worse
// than the c2+f4 heuristic's, and the per-level comparison score for
// the heuristic agrees with the tuner's own front-end computation.
func TestTunedNeverWorseThanHeuristic(t *testing.T) {
	models := []CostModel{
		CycleModel{M: machine.T3E(), Procs: 1},
		CacheModel{M: machine.SP2(), Procs: 1, MaxCells: 128},
	}
	// The guarantee is bound-independent (the ladder seeds the beam),
	// so keep the search small across the 12-configuration matrix.
	bounds := SearchOptions{Beam: 4, ExhaustiveVertices: 6, MaxStates: 5000}
	for _, b := range programs.All() {
		for _, m := range models {
			res, err := Tune(context.Background(), b.Source, Options{
				Level:   core.C2F4,
				Model:   m,
				Configs: smallConfigs(b),
				Search:  bounds,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, m.Name(), err)
			}
			if res.TunedScore > res.HeuristicScore {
				t.Errorf("%s/%s: tuned %.0f > heuristic %.0f",
					b.Name, m.Name(), res.TunedScore, res.HeuristicScore)
			}
			if got := res.LevelScores["c2+f4"]; math.Abs(got-res.HeuristicScore) > 1e-6 {
				t.Errorf("%s/%s: LevelScores[c2+f4]=%.2f but heuristic front end scored %.2f",
					b.Name, m.Name(), got, res.HeuristicScore)
			}
			if len(res.Blocks) == 0 {
				t.Errorf("%s/%s: no block stats", b.Name, m.Name())
			}
		}
	}
}

// TestExhaustiveProvesSmallBenchmark pins that exhaustive enumeration
// terminates on a benchmark whose blocks are all small (frac), giving
// a proven-optimal plan.
func TestExhaustiveProvesSmallBenchmark(t *testing.T) {
	b, _ := programs.ByName("frac")
	res, err := Tune(context.Background(), b.Source, Options{
		Level: core.C2F4, Configs: smallConfigs(b),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Errorf("frac not proven optimal; blocks: %+v", res.Blocks)
	}
	for _, bs := range res.Blocks {
		if bs.Method != "exhaustive" {
			t.Errorf("block %d searched by %s, want exhaustive", bs.Block, bs.Method)
		}
	}
}

// TestLargeBlocksFallBackToBeam pins the fallback path: a benchmark
// with a large block (sp: 25 fusible statements) must use beam search
// there without erroring, still beating or matching the heuristic.
func TestLargeBlocksFallBackToBeam(t *testing.T) {
	b, _ := programs.ByName("sp")
	res, err := Tune(context.Background(), b.Source, Options{
		Level: core.C2F4, Configs: smallConfigs(b),
	})
	if err != nil {
		t.Fatal(err)
	}
	beam := false
	for _, bs := range res.Blocks {
		if bs.Method == "beam" {
			beam = true
		}
	}
	if !beam {
		t.Error("sp used no beam search — exhaustive threshold regressed?")
	}
	if res.Proven {
		t.Error("sp reported proven despite beam blocks")
	}
	if res.TunedScore > res.HeuristicScore {
		t.Errorf("tuned %.0f > heuristic %.0f", res.TunedScore, res.HeuristicScore)
	}
}

// TestTunedPlanBitIdentical is the differential satellite: for every
// benchmark, the tuned plan (a) passes the static verifier's fusion
// and contraction passes when applied through the driver, and (b)
// produces bit-identical VM output to the baseline (unoptimized)
// plan. Tuning must never change semantics.
func TestTunedPlanBitIdentical(t *testing.T) {
	for _, b := range programs.All() {
		cfgs := smallConfigs(b)
		res, err := Tune(context.Background(), b.Source, Options{
			Level: core.C2F4, Configs: cfgs,
		})
		if err != nil {
			t.Fatalf("%s: tune: %v", b.Name, err)
		}
		p := matrix.Program{Name: b.Name, Src: b.Source, Configs: cfgs}
		tuned := p.At(core.Baseline, 0)
		tuned.Name, tuned.Opt.Plan = b.Name+"/tuned", res.Spec
		baseline, got := matrix.Check(t, p.At(core.Baseline, 0)), matrix.Check(t, tuned)
		if baseline != got {
			t.Errorf("%s: tuned output differs from baseline:\nbaseline: %s\ntuned:    %s", b.Name, baseline, got)
		}
	}
}

// TestTunedPlanBitIdenticalDistributed repeats the differential test
// for a distributed compilation of one stencil benchmark, exercising
// the segment constraint and the DisableRealign path.
func TestTunedPlanBitIdenticalDistributed(t *testing.T) {
	b, _ := programs.ByName("simple")
	cfgs := smallConfigs(b)
	copt := commOptions(4)
	res, err := Tune(context.Background(), b.Source, Options{
		Level: core.C2F4, Configs: cfgs, Comm: &copt,
	})
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	p := matrix.Program{Name: b.Name, Src: b.Source, Configs: cfgs}
	tuned := p.At(core.Baseline, 0)
	tuned.Name, tuned.Opt.Plan, tuned.Opt.Comm = b.Name+"/tuned p=4", res.Spec, &copt
	if baseline, got := matrix.Check(t, p.At(core.Baseline, 0)), matrix.Check(t, tuned); baseline != got {
		t.Errorf("distributed tuned output differs:\nbaseline: %s\ntuned:    %s", baseline, got)
	}
	if res.Spec.Realign {
		t.Error("distributed spec requests realignment (must be disabled when distributed)")
	}
}

// TestMeasuredMode smoke-tests measured mode on the smallest
// benchmark: every candidate runs, times are recorded, and the
// winner names one of them.
func TestMeasuredMode(t *testing.T) {
	b, _ := programs.ByName("frac")
	res, err := Tune(context.Background(), b.Source, Options{
		Level: core.C2F4, Configs: smallConfigs(b), Measure: true, TopK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) != 3 {
		t.Fatalf("measured %d candidates, want 3", len(res.Measured))
	}
	names := map[string]bool{}
	for _, m := range res.Measured {
		if m.WallMS < 0 || m.Steps <= 0 {
			t.Errorf("candidate %s: wall %.3fms steps %d", m.Name, m.WallMS, m.Steps)
		}
		names[m.Name] = true
	}
	if !names["tuned"] || !names["c2+f4"] {
		t.Errorf("measured set %v missing tuned or c2+f4", names)
	}
	if !names[res.Winner] {
		t.Errorf("winner %q not among measured candidates", res.Winner)
	}
}

// TestTuneHonorsDeadline pins the timeout path: an already-expired
// context aborts the search with the context's error.
func TestTuneHonorsDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := programs.ByName("frac")
	if _, err := Tune(ctx, b.Source, Options{Level: core.C2F4, Configs: smallConfigs(b)}); err == nil {
		t.Error("cancelled tune returned no error")
	}
}

// TestCompileErrorTyped pins the error contract the CLIs map to exit
// code 3: source failures wrap as *CompileError.
func TestCompileErrorTyped(t *testing.T) {
	_, err := Tune(context.Background(), "this is not a program", Options{Level: core.C2F4})
	if err == nil {
		t.Fatal("garbage source tuned successfully")
	}
	if _, ok := err.(*CompileError); !ok {
		t.Errorf("error type %T, want *CompileError", err)
	}
}
