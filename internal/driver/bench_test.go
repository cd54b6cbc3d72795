package driver

import (
	"fmt"
	"runtime"
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

// BenchmarkCompileChain times the one-block programs.Chain compile at
// 6,400 and 28,000 statements (the latter just under zpld's 1 MiB body
// limit), at baseline and at c2+f4: the partitioner's legality checks
// and LoopStructureFor read one cluster's proof, so both grow about
// linearly. Not part of tier-1; run with -benchtime 1x.
func BenchmarkCompileChain(b *testing.B) {
	for _, n := range []int{6400, 28000} {
		src := programs.Chain(n)
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			b.Run(fmt.Sprintf("%d/%s", n, lvl), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Compile(src, Options{Level: lvl}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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

// compileMallocs is the number of heap allocations one Compile of src
// at c2+f4 makes.
func compileMallocs(tb testing.TB, src string) uint64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Compile(src, Options{Level: core.C2F4}); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCompileScales holds compile cost to linear growth in block size,
// counted in allocations so that it does not read the clock. The
// generated chain is one block of N statements, each reading the
// previous one's array: 16x the statements must cost at most 20x the
// allocations (linear is 16x). While liveness re-walked the block for
// every candidate array, 6,400 statements made 215x the allocations of
// 400.
func TestCompileScales(t *testing.T) {
	small := compileMallocs(t, programs.Chain(400))
	large := compileMallocs(t, programs.Chain(6400))
	if ratio := float64(large) / float64(small); ratio > 20 {
		t.Errorf("chain compile: %d mallocs at N=6,400, %d at N=400 (%.1fx; at most 20x)", large, small, ratio)
	}
}
