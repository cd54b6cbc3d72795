package vm_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/vm"
)

// BenchmarkRun times Machine.Run alone (compilation and vm.New outside
// the timer) on the six benchmarks at the ladder's two ends and twice
// their default size — the cells of the bench harness's run-interp
// workload — and reports the time per executed element-statement, the
// VM's layer metric, so the number can be watched without bench/.
func BenchmarkRun(b *testing.B) {
	for _, p := range programs.All() {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			b.Run(fmt.Sprintf("%s/%s", p.Name, lvl), func(b *testing.B) {
				c, err := driver.Compile(p.Source, driver.Options{
					Level: lvl, Configs: map[string]int64{p.SizeConfig: 2 * p.DefaultSize},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var steps int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					m, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					res, err := m.Run()
					if err != nil {
						b.Fatal(err)
					}
					steps += res.Steps
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/elem-stmt")
			})
		}
	}
}

// BenchmarkFold times a full reduction's fold over one strip, the max
// and + folds on two kinds of data: near ties, a slow rise under noise
// of the same size, where about seven elements in eight set a new
// maximum by a few ulps and the rest do not, so the Go loop's branch
// goes both ways without a pattern; and uniform random values, where a
// new maximum is rare. The accumulator starts at the identity for every
// strip. Each cell runs with the packed kernels (where the host has
// them) and with the Go loops, and reports ns per element, so the
// fold's cost can be watched without bench/.
func BenchmarkFold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	near, random := make([]float64, vm.StripWidth), make([]float64, vm.StripWidth)
	for i := range near {
		near[i] = 1 + 1e-9*(float64(i)+2*r.Float64())
		random[i] = r.Float64()
	}
	for _, op := range []struct {
		name     string
		op       air.ReduceOp
		identity float64
	}{{"max", air.ReduceMax, math.Inf(-1)}, {"sum", air.ReduceSum, 0}} {
		for _, data := range []struct {
			name string
			x    []float64
		}{{"near-tie", near}, {"random", random}} {
			for _, kernels := range []string{"packed", "go"} {
				b.Run(op.name+"/"+data.name+"/"+kernels, func(b *testing.B) {
					if kernels == "packed" && !vm.PackedOnHost() {
						b.Skip("this host runs the Go loops only")
					}
					restore := vm.SetPacked(kernels == "packed")
					f := vm.FoldStrip(op.op)
					restore()
					var acc float64
					for i := 0; i < b.N; i++ {
						acc = f(op.identity, data.x)
					}
					foldSink = acc
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data.x)), "ns/elem")
				})
			}
		}
	}
}

// foldSink keeps BenchmarkFold's result live.
var foldSink float64

// TestNewAllocs is the ceiling on what building a machine costs: zpld
// and the lazy runtime build one per operation, and the strip buffers
// are pooled per machine so that a small program's come to a few
// kilobytes in one slab. heat at n=32, c2+f4: 150 allocations when the
// ceiling was set (141 with the per-element evaluator before it).
func TestNewAllocs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": 32}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("vm.New(heat n=32 c2+f4): %.0f allocations, ceiling 200", allocs)
	}
}

// TestRerunAllocs is the ceiling on running a built machine again
// (Reset, then Run), the lazy runtime's steady state: the closures and
// storage are kept, so a rerun allocates its Result and nothing else.
// At splitSize heat's initialising nests split on two goroutines, and a
// chunk's go statement and the wait allocate nothing either.
// testing.AllocsPerRun runs at GOMAXPROCS 1, where no nest splits, so
// the split cell counts mallocs itself.
func TestRerunAllocs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int64{32, splitSize(2)} {
		c, err := driver.Compile(string(src), driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": n}})
		if err != nil {
			t.Fatal(err)
		}
		rerun := func(m *vm.Machine) {
			m.Reset(ctx)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		}
		var allocs float64
		if n == 32 {
			m, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds})
			if err != nil {
				t.Fatal(err)
			}
			allocs = testing.AllocsPerRun(20, func() { rerun(m) })
		} else {
			atProcs(2, func() {
				m, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds})
				if err != nil {
					t.Fatal(err)
				}
				if vm.Splits(m) == 0 || vm.Views(m) != 1 {
					t.Fatalf("heat n=%d: %d split nests, %d views; want some, 1", n, vm.Splits(m), vm.Views(m))
				}
				// go takes a dead goroutine from its P's free list, and
				// makes one only while the lists are still filling: warm
				// up, then average over many reruns.
				for range 100 {
					rerun(m)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range 100 {
					rerun(m)
				}
				runtime.ReadMemStats(&after)
				allocs = float64(after.Mallocs-before.Mallocs) / 100
			})
		}
		if allocs > 2 {
			t.Errorf("Reset + Run(heat n=%d c2+f4): %.1f allocations, ceiling 2", n, allocs)
		}
	}
}
