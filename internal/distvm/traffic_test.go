package distvm

import (
	"io"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/programs"
)

// compileFor compiles a benchmark for procs processors at n.
func compileFor(t testing.TB, b programs.Benchmark, lvl core.Level, procs int, n int64) *lir.Program {
	t.Helper()
	co := comm.DefaultOptions(procs)
	c, err := driver.Compile(b.Source, driver.Options{Level: lvl, Comm: &co, Configs: map[string]int64{b.SizeConfig: n}})
	if err != nil {
		t.Fatalf("%s %v p=%d: %v", b.Name, lvl, procs, err)
	}
	return c.LIR
}

// TestTrafficPinned pins what a p=2 run of each cell of the benchmark's
// run-interp workload exchanges, at the workload's sizes. The table was
// generated at the parent of the PR that replaced the channel barrier
// (PR 22) by counting its AllCombine calls and posted halo legs, so it
// is the proof that that PR removed no synchronisation; a change that
// shares or elides one has to move these numbers on purpose.
func TestTrafficPinned(t *testing.T) {
	for _, c := range []struct {
		bench, level                             string
		barriers, reductions, messages, elements int64
	}{
		{"ep", "baseline", 80, 28, 0, 0},
		{"ep", "c2+f4", 0, 4, 0, 0},
		{"frac", "baseline", 27, 1, 0, 0},
		{"frac", "c2+f4", 3, 1, 0, 0},
		{"sp", "baseline", 5349, 3, 20, 1920},
		{"sp", "c2+f4", 385, 3, 20, 1920},
		{"tomcatv", "baseline", 3848, 8, 12, 1536},
		{"tomcatv", "c2+f4", 385, 5, 12, 1536},
		{"simple", "baseline", 68, 6, 21, 2688},
		{"simple", "c2+f4", 7, 6, 21, 2688},
		{"fibro", "baseline", 53, 6, 21, 2688},
		{"fibro", "c2+f4", 7, 3, 21, 2688},
	} {
		b, _ := programs.ByName(c.bench)
		lvl, err := core.ParseLevel(c.level)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(compileFor(t, b, lvl, 2, 2*b.DefaultSize), Options{Procs: 2, Out: io.Discard})
		if err != nil {
			t.Fatalf("%s %s: %v", c.bench, c.level, err)
		}
		got := m.Traffic()
		got.Parks = 0 // the one count that depends on timing
		if want := (Traffic{Barriers: c.barriers, Reductions: c.reductions, HaloMessages: c.messages, HaloElements: c.elements}); got != want {
			t.Errorf("%s %s: traffic %+v, want %+v", c.bench, c.level, got, want)
		}
	}
}

// TestLockstep is the runtime's half of the race analyzer's soundness
// argument. Package mhp's doc: "Soundness rests on two SPMD facts the
// distributed machine (internal/distvm) establishes: every loop nest
// and partial reduction ends in a global synchronization". So on every
// processor count, every processor must have entered the same number of
// synchronisations, and that number must be the number of nests and
// partial reductions the program executes — which is what one processor
// alone counts, since a lone shard synchronises with nobody but still
// numbers each one. A change that elides a barrier fails here before it
// invalidates a proof.
func TestLockstep(t *testing.T) {
	for _, b := range programs.All() {
		n := int64(16)
		if b.Rank == 1 {
			n = 128
		}
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			for _, procs := range []int{2, 4, 8} {
				prog := compileFor(t, b, lvl, procs, n)
				alone, err := Run(prog, Options{Procs: 1, Out: io.Discard})
				if err != nil {
					t.Fatalf("%s %v: the p=%d program on one processor: %v", b.Name, lvl, procs, err)
				}
				m, err := Run(prog, Options{Procs: procs, Out: io.Discard})
				if err != nil {
					t.Fatalf("%s %v p=%d: %v", b.Name, lvl, procs, err)
				}
				for p, s := range m.ends {
					if s.syncSeq != alone.ends[0].syncSeq {
						t.Errorf("%s %v p=%d: processor %d entered %d synchronisations, the program executes %d nests and partial reductions",
							b.Name, lvl, procs, p, s.syncSeq, alone.ends[0].syncSeq)
					}
				}
				if tr := m.Traffic(); tr.Barriers+tr.Reductions != alone.ends[0].syncSeq {
					t.Errorf("%s %v p=%d: Traffic counts %d synchronisations, want %d", b.Name, lvl, procs, tr.Barriers+tr.Reductions, alone.ends[0].syncSeq)
				}
			}
		}
	}
}
