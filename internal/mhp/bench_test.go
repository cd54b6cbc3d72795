package mhp_test

// Analyzer-level numbers drive the analyzer over compiler-produced
// schedules (the external test package may import driver; the analyzer
// itself is imported by it).

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/mhp"
	"repro/internal/programs"
)

// schedule is the p=2 event schedule of one benchmark at c2+f4: what
// the distributed cells of bench/'s compile workload analyze.
func schedule(tb testing.TB, name string) *mhp.Schedule {
	tb.Helper()
	b, ok := programs.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	co := comm.DefaultOptions(2)
	c, err := driver.Compile(b.Source, driver.Options{Level: core.C2F4, Comm: &co, NoRace: true})
	if err != nil {
		tb.Fatal(err)
	}
	return mhp.BuildSchedule(c.LIR, 2)
}

var sink *mhp.Result

// BenchmarkAnalyze is mhp.race_ms without the harness (BuildSchedule
// excluded): ns and allocations per analysis of each benchmark.
func BenchmarkAnalyze(b *testing.B) {
	for _, p := range programs.All() {
		s := schedule(b, p.Name)
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = mhp.Analyze(s)
			}
		})
	}
}

// TestAnalyzeAllocs is the guard that the analysis words nothing: on a
// clean schedule every verdict is a kind tag and a few pointers, so the
// allocations are the pair list, the maps and the coverage snapshots.
// Rendering one evidence string per classified pair, as the analyzer
// did until PR 19, costs sp about 4,000 more.
func TestAnalyzeAllocs(t *testing.T) {
	const ceiling = 1000
	s := schedule(t, "sp")
	if got := testing.AllocsPerRun(5, func() { sink = mhp.Analyze(s) }); got > ceiling {
		t.Errorf("mhp.Analyze on the sp c2+f4 p=2 schedule: %.0f allocations, ceiling %d", got, ceiling)
	}
	if !sink.Clean() || len(sink.Pairs) == 0 {
		t.Fatalf("sp schedule: %d pairs, clean=%v", len(sink.Pairs), sink.Clean())
	}
}
