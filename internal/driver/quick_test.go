package driver

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/air"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/soak"
	"repro/internal/vm"
)

// outputsClose compares two writeln transcripts token-wise, allowing
// tiny relative differences on numeric tokens: fusing a reduction into
// a nest with a different loop structure reorders the accumulation,
// which is not bitwise-associative in floating point (the paper's
// compiler reassociates reductions the same way).
func outputsClose(a, b string) bool {
	ta, tb := strings.Fields(a), strings.Fields(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] == tb[i] {
			continue
		}
		fa, errA := strconv.ParseFloat(ta[i], 64)
		fb, errB := strconv.ParseFloat(tb[i], 64)
		if errA != nil || errB != nil {
			return false
		}
		diff := math.Abs(fa - fb)
		scale := math.Max(math.Abs(fa), math.Abs(fb))
		if diff > 1e-9*math.Max(scale, 1) {
			return false
		}
	}
	return true
}

func runLevel(src string, lvl core.Level) (string, error) {
	c, err := Compile(src, Options{Level: lvl})
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	if _, _, err := c.Run(vm.Options{Out: &out}); err != nil {
		return "", err
	}
	return out.String(), nil
}

// TestQuickTransformationSoundness: for random programs, every
// optimization level computes exactly the baseline's output.
func TestQuickTransformationSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)
		want, err := runLevel(src, core.Baseline)
		if err != nil {
			t.Logf("baseline failed (seed %d): %v\n%s", seed, err, src)
			return false
		}
		for _, lvl := range []core.Level{core.C1, core.C2, core.C2F3, core.C2F4} {
			got, err := runLevel(src, lvl)
			if err != nil {
				t.Logf("%v failed (seed %d): %v\n%s", lvl, seed, err, src)
				return false
			}
			if !outputsClose(got, want) {
				t.Logf("%v diverged (seed %d):\nwant %q\ngot  %q\n%s", lvl, seed, want, got, src)
				return false
			}
		}
		return true
	}
	cfg := soak.Config(t, 25, 7)
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionsValid: the fusion partitions produced for random
// programs always satisfy Definition 5 (re-checked independently by
// Partition.Validate).
func TestQuickPartitionsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)
		for _, lvl := range []core.Level{core.C1, core.C2, core.C2F3, core.C2F4} {
			c, err := Compile(src, Options{Level: lvl})
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

// TestQuickDistributedSoundness: random programs with communication
// inserted still match the sequential baseline.
func TestQuickDistributedSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)
		want, err := runLevel(src, core.Baseline)
		if err != nil {
			return false
		}
		for _, procs := range []int{4, 16} {
			co := defaultComm(procs)
			c, err := Compile(src, Options{Level: core.C2F3, Comm: &co})
			if err != nil {
				t.Logf("distributed compile failed (seed %d): %v", seed, err)
				return false
			}
			var out bytes.Buffer
			if _, _, err := c.Run(vm.Options{Out: &out}); err != nil {
				t.Logf("distributed run failed (seed %d): %v", seed, err)
				return false
			}
			if !outputsClose(out.String(), want) {
				t.Logf("distributed diverged (seed %d, p=%d)\n%s", seed, procs, src)
				return false
			}
		}
		return true
	}
	cfg := soak.Config(t, 15, 9)
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// The one program the time-seeded runs of this test have found that
	// fails it: a halo reused by a later statement is a dependence the
	// ASDG does not carry (ROADMAP item 1, diagnosed there, fixed by the
	// PR that takes it). Un-skip it with that fix.
	t.Run("seed -5482402805499627837 (ROADMAP item 1)", func(t *testing.T) {
		t.Skip("known failure, ROADMAP item 1: the reused-halo dependence is missing from the ASDG")
		if !f(-5482402805499627837) {
			t.Error("distributed compile or run diverged from the sequential baseline")
		}
	})
}

func defaultComm(procs int) comm.Options { return comm.DefaultOptions(procs) }

// checkFailure reports the verification error for src under opt, or
// "" when the pipeline compiles and verifies clean. Used as the
// failure predicate for both the fuzz pass and the shrinker.
func checkFailure(src string, opt Options) string {
	opt.Check = true
	if _, err := Compile(src, opt); err != nil {
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
		var opts []Options
		for _, lvl := range sequential {
			opts = append(opts, Options{Level: lvl})
		}
		co := defaultComm(4)
		opts = append(opts, Options{Level: core.C2F3, Comm: &co})
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
}

// nopTracer observes nothing; its presence makes the VM run at strip
// width 1.
type nopTracer struct{}

func (nopTracer) Access(int64, bool)                                     {}
func (nopTracer) Flops(int64)                                            {}
func (nopTracer) Comm(string, air.Offset, int, air.CommPhase, int, bool) {}
func (nopTracer) Reduce()                                                {}

// TestQuickTracedMatchesUntraced: the VM has one evaluator with two
// modes — a traced machine runs every sweep an element at a time, an
// untraced one a strip at a time — and the same compilation must print
// the same bytes in both, with and without scalar replacement. This is
// the check from outside the vm package, with no test hook.
func TestQuickTracedMatchesUntraced(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)
		for _, opt := range []Options{{Level: core.Baseline}, {Level: core.C2F4}, {Level: core.C2F3, ScalarReplace: true}} {
			c, err := Compile(src, opt)
			if err != nil {
				t.Logf("%v failed (seed %d): %v\n%s", opt.Level, seed, err, src)
				return false
			}
			var plain, traced bytes.Buffer
			_, pres, err := c.Run(vm.Options{Out: &plain})
			if err != nil {
				t.Logf("%v untraced run failed (seed %d): %v\n%s", opt.Level, seed, err, src)
				return false
			}
			_, tres, err := c.Run(vm.Options{Out: &traced, Tracer: nopTracer{}})
			if err != nil {
				t.Logf("%v traced run failed (seed %d): %v\n%s", opt.Level, seed, err, src)
				return false
			}
			if plain.String() != traced.String() || pres.Steps != tres.Steps {
				t.Logf("%v (seed %d): traced run diverged\nuntraced %q (%d steps)\ntraced   %q (%d steps)\n%s",
					opt.Level, seed, plain.String(), pres.Steps, traced.String(), tres.Steps, src)
				return false
			}
		}
		return true
	}
	cfg := soak.Config(t, 25, 11)
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
