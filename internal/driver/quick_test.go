package driver_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/soak"
)

// random names the program of a property test's cells.
func random(src string) matrix.Program { return matrix.Program{Name: "random", Src: src} }

// TestQuickTransformationSoundness: for random programs, every
// optimization level computes Reference's output, up to the
// reassociation of a fused reduction.
func TestQuickTransformationSoundness(t *testing.T) {
	cfg := soak.Config(t, 25, 7)
	if testing.Short() {
		cfg.MaxCount = 5
	}
	matrix.Quick(t, cfg, func(src string) []matrix.Cell {
		var cells []matrix.Cell
		for _, lvl := range []core.Level{core.Baseline, core.C1, core.C2, core.C2F3, core.C2F4} {
			cells = append(cells, random(src).At(lvl, matrix.VM))
		}
		return cells
	})
}

// TestQuickPartitionsValid: the fusion partitions produced for random
// programs always satisfy Definition 5 (re-checked independently by
// Partition.Validate).
func TestQuickPartitionsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)
		for _, lvl := range []core.Level{core.C1, core.C2, core.C2F3, core.C2F4} {
			c, err := driver.Compile(src, driver.Options{Level: lvl})
			if err != nil {
				t.Logf("compile failed (seed %d): %v", seed, err)
				return false
			}
			for _, bp := range c.Plan.Blocks {
				if bp.Part == nil {
					continue
				}
				if err := bp.Part.Validate(); err != nil {
					t.Logf("invalid partition (seed %d, %v): %v\n%s", seed, lvl, err, src)
					return false
				}
			}
		}
		return true
	}
	cfg := soak.Config(t, 25, 8)
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// distributed is a random program at c2+f3 over 4 and 16 processors.
func distributed(src string) []matrix.Cell {
	c := random(src).At(core.C2F3, matrix.VM)
	c.Procs = []int{4, 16}
	return []matrix.Cell{c}
}

// TestQuickDistributedSoundness: random programs with communication
// inserted still compute Reference's output, on the VM and on distvm.
func TestQuickDistributedSoundness(t *testing.T) {
	cfg := soak.Config(t, 15, 9)
	if testing.Short() {
		cfg.MaxCount = 3
	}
	matrix.Quick(t, cfg, distributed)
	// The one program the time-seeded runs of this test have found that
	// fails it: a halo reused by a later statement is a dependence the
	// ASDG does not carry (ROADMAP item 1, diagnosed there, fixed by the
	// PR that takes it). Un-skip it with that fix.
	t.Run("seed -5482402805499627837 (ROADMAP item 1)", func(t *testing.T) {
		t.Skip("known failure, ROADMAP item 1: the reused-halo dependence is missing from the ASDG")
		for _, c := range distributed(programs.Random(rand.New(rand.NewSource(-5482402805499627837)))) {
			matrix.Check(t, c)
		}
	})
}

// checkFailure reports the verification error for src under opt, or
// "" when the pipeline compiles and verifies clean. Used as the
// failure predicate for both the fuzz pass and the shrinker.
func checkFailure(src string, opt driver.Options) string {
	opt.Check = true
	if _, err := driver.Compile(src, opt); err != nil {
		return err.Error()
	}
	return ""
}

// TestQuickVerifierClean: every random program the generator can
// produce must verify clean under the full static verifier at every
// level, sequential and distributed. A failure is shrunk to a
// near-minimal reproducer before logging.
func TestQuickVerifierClean(t *testing.T) {
	sequential := []core.Level{core.Baseline, core.C1, core.C2, core.C2F3, core.C2F4}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)
		var opts []driver.Options
		for _, lvl := range sequential {
			opts = append(opts, driver.Options{Level: lvl})
		}
		co := comm.DefaultOptions(4)
		opts = append(opts, driver.Options{Level: core.C2F3, Comm: &co})
		for _, opt := range opts {
			if msg := checkFailure(src, opt); msg != "" {
				small := programs.Shrink(src, func(s string) string { return checkFailure(s, opt) })
				t.Logf("verifier failed (seed %d, level %v, dist %v): %s\nshrunk reproducer:\n%s",
					seed, opt.Level, opt.Comm != nil, msg, small)
				return false
			}
		}
		return true
	}
	cfg := soak.Config(t, 20, 10)
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// The second program the time-seeded runs found for ROADMAP item 1:
	// at c2+f3 the comm-schedule pass rejects it for p = 2, 4 and 8
	// (a read of A0@(0,-1) fused above the receive of its halo).
	t.Run("seed 3540307592844577193 (ROADMAP item 1)", func(t *testing.T) {
		t.Skip("known failure, ROADMAP item 1: the reused-halo dependence is missing from the ASDG")
		src := programs.Random(rand.New(rand.NewSource(3540307592844577193)))
		for _, p := range []int{2, 4, 8} {
			co := comm.DefaultOptions(p)
			if msg := checkFailure(src, driver.Options{Level: core.C2F3, Comm: &co}); msg != "" {
				t.Errorf("p=%d: %s", p, msg)
			}
		}
	})
}

// TestQuickTracedMatchesUntraced: the VM has one evaluator with two
// modes — a traced machine runs every sweep an element at a time, an
// untraced one a strip at a time — and the same compilation must print
// the same bytes in the same number of steps in both, with and without
// scalar replacement. This is the check from outside the vm package,
// with no test hook.
func TestQuickTracedMatchesUntraced(t *testing.T) {
	cfg := soak.Config(t, 25, 11)
	if testing.Short() {
		cfg.MaxCount = 5
	}
	matrix.Quick(t, cfg, func(src string) []matrix.Cell {
		sr := random(src).At(core.C2F3, matrix.Traced)
		sr.Name, sr.Opt.ScalarReplace = sr.Name+"/scalarrep", true
		return []matrix.Cell{random(src).At(core.Baseline, matrix.Traced), random(src).At(core.C2F4, matrix.Traced), sr}
	})
}
