package driver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mhp"
	"repro/internal/programs"
	"repro/internal/soak"
)

// TestRaceLadderClean: the acceptance sweep for the happens-before
// analyzer. Every compiler-produced schedule across the benchmark
// suite × the full optimization ladder × {2,4,8} processors must be
// ProvenOrdered with zero Unknown conflicting pairs and no deadlocks.
func TestRaceLadderClean(t *testing.T) {
	totalOrdered, totalSends := 0, 0
	for _, b := range programs.All() {
		for _, lv := range core.AllLevels() {
			for _, p := range []int{2, 4, 8} {
				co := comm.DefaultOptions(p)
				c, err := Compile(b.Source, Options{
					Level: lv, Comm: &co,
					Configs: map[string]int64{b.SizeConfig: 32},
				})
				if err != nil {
					t.Fatalf("%s/%s/p%d: %v", b.Name, lv, p, err)
				}
				res := mhp.Analyze(mhp.BuildSchedule(c.LIR, p))
				if !res.Clean() {
					for _, pr := range res.Pairs {
						if pr.Verdict != mhp.ProvenOrdered {
							t.Logf("  %s", pr)
						}
					}
					for _, d := range res.Deadlocks {
						t.Logf("  deadlock: %s", d)
					}
					t.Errorf("%s/%s/p%d: ordered=%d race=%d unknown=%d deadlocks=%d",
						b.Name, lv, p, res.NumOrdered, res.NumRace, res.NumUnknown, len(res.Deadlocks))
				}
				totalOrdered += res.NumOrdered
				totalSends += res.Sends
			}
		}
	}
	// The sweep must exercise the analyzer, not vacuously pass on
	// schedules with no communication or no conflicting pairs.
	if totalOrdered == 0 || totalSends == 0 {
		t.Fatalf("sweep proved nothing: ordered=%d sends=%d", totalOrdered, totalSends)
	}
}

// TestRaceFaultsRejected: every seeded schedule fault, injected into a
// real compiler-produced schedule, must be rejected with a positioned
// diagnostic (a race or deadlock naming both events).
func TestRaceFaultsRejected(t *testing.T) {
	b, ok := programs.ByName("simple")
	if !ok {
		t.Fatal("benchmark simple not found")
	}
	co := comm.DefaultOptions(4)
	c, err := Compile(b.Source, Options{
		Level: core.C2F3, Comm: &co,
		Configs: map[string]int64{b.SizeConfig: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := mhp.BuildSchedule(c.LIR, 4)
	if res := mhp.Analyze(base); !res.Clean() {
		t.Fatalf("baseline schedule not clean: %+v", res)
	}
	for _, kind := range mhp.FaultKinds() {
		bad, err := mhp.Inject(base, kind)
		if err != nil {
			t.Fatalf("%s: no injection site in a real stencil schedule: %v", kind, err)
		}
		res := mhp.Analyze(bad)
		if err := res.Err(); err == nil {
			t.Errorf("%s: seeded fault %v not rejected", kind, bad.Faults)
		} else {
			t.Logf("%s: rejected: %v", kind, err)
		}
	}
	// The original schedule must be untouched by the injections.
	if res := mhp.Analyze(base); !res.Clean() {
		t.Errorf("injection mutated the original schedule")
	}
}

// raceFailure is the fuzz failure predicate: a program whose compiled
// distributed schedule analyzes as anything but clean.
func raceFailure(src string, opt Options, procs int) string {
	c, err := Compile(src, opt)
	if err != nil {
		// Generator programs always compile; a failure here is its own
		// bug but not a race-analysis one.
		return ""
	}
	res := mhp.Analyze(mhp.BuildSchedule(c.LIR, procs))
	if res.Clean() {
		return ""
	}
	for _, p := range res.Pairs {
		if p.Verdict != mhp.ProvenOrdered {
			return p.String()
		}
	}
	return res.Deadlocks[0].String()
}

// TestQuickRaceClean: every random program the generator can produce
// yields a clean happens-before analysis at every distributed
// configuration — the fuzz companion to TestRaceLadderClean, sharing
// its shrinking harness with TestQuickVerifierClean.
func TestQuickRaceClean(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)
		for _, lvl := range []core.Level{core.C2, core.C2F3, core.C2F4} {
			for _, procs := range []int{2, 4} {
				co := comm.DefaultOptions(procs)
				opt := Options{Level: lvl, Comm: &co}
				if msg := raceFailure(src, opt, procs); msg != "" {
					small := programs.Shrink(src, func(s string) string { return raceFailure(s, opt, procs) })
					t.Logf("race analysis failed (seed %d, level %v, p=%d): %s\nshrunk reproducer:\n%s",
						seed, lvl, procs, msg, small)
					return false
				}
			}
		}
		return true
	}
	cfg := soak.Config(t, 15, 6)
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
