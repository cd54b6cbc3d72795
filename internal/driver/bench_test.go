package driver

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/programs"
)

// compileDist compiles one benchmark the way the p=2 cells of the
// `compile` workload of bench/ do: c2+f4 over comm.DefaultOptions(2).
func compileDist(tb testing.TB, name string) *Compilation {
	tb.Helper()
	b, ok := programs.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	co := comm.DefaultOptions(2)
	c, err := Compile(b.Source, Options{Level: core.C2F4, Comm: &co})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkCompileDist times the distributed compiles whose cost the
// fusion partitioner used to dominate (sp: 65 statements, 84 edges, 43
// final clusters in one block) and the provers' evidence strings after
// it. Allocations are reported because they are the wall-clock-free
// measure of both.
func BenchmarkCompileDist(b *testing.B) {
	for _, name := range []string{"sp", "tomcatv", "simple", "fibro"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compileDist(b, name)
			}
		})
	}
}

// TestCompileDistAllocs is the complexity guard that does not depend
// on the wall clock. While the partitioner rebuilt the cluster
// condensation for every candidate pair, the sp c2+f4 p=2 compile made
// 1.92 M allocations (192 MB); with the condensation maintained it made
// about 25 K, half of them evidence strings of the two provers; with
// those rendered on demand it made about 11.4 K, and with the plan's
// remarks rendered only when read it makes about 10.8 K, every phase
// included. The ceiling is that plus 15%. (internal/mhp and
// internal/absint carry their own, on the analyzers alone.)
func TestCompileDistAllocs(t *testing.T) {
	const ceiling = 12_400
	if got := testing.AllocsPerRun(3, func() { compileDist(t, "sp") }); got > ceiling {
		t.Errorf("sp c2+f4 p=2 compile: %.0f allocations, ceiling %d", got, ceiling)
	}
}
