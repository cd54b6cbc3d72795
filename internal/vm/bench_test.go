package vm_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
func TestRerunAllocs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": 32}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		m.Reset(ctx)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Reset + Run(heat n=32 c2+f4): %.0f allocations, ceiling 2", allocs)
	}
}
