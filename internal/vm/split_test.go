package vm_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/absint"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/vm"
)

// splitPrograms are the six benchmarks and heat.
func splitPrograms(t *testing.T) []programs.Benchmark {
	t.Helper()
	heat, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	return append(programs.All(), programs.Benchmark{Name: "heat", Source: string(heat), SizeConfig: "n", Rank: 2})
}

// splitSize is the size at which a one-statement nest over a
// program's main region, or over its interior, does absint.SplitWork
// element-statements: 446 × 446 or SplitWork + 2 points.
func splitSize(rank int) int64 {
	if rank == 1 {
		return absint.SplitWork + 2
	}
	return int64(math.Ceil(math.Sqrt(absint.SplitWork))) + 2
}

// compileSplit compiles p at lvl at splitSize, where its nests over
// the main region split.
func compileSplit(t *testing.T, p programs.Benchmark, lvl core.Level) *driver.Compilation {
	t.Helper()
	n := splitSize(p.Rank)
	c, err := driver.Compile(p.Source, driver.Options{Level: lvl, Configs: map[string]int64{p.SizeConfig: n}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// atProcs runs f with runtime.GOMAXPROCS at procs: a machine reads it,
// not the environment.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// settled waits up to a second for the goroutine count to fall back to
// before: a chunk's goroutine has called Done when Run returns, but may
// not have exited yet.
func settled(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// splitRun is what one run leaves: its transcript, steps, and every
// array's and scalar's bits.
type splitRun struct {
	out    string
	steps  int64
	arrays map[string][]uint64
	slots  map[string]uint64
	splits int
}

func runSplit(t *testing.T, c *driver.Compilation, procs int) splitRun {
	t.Helper()
	var r splitRun
	atProcs(procs, func() {
		var out bytes.Buffer
		before := runtime.NumGoroutine()
		m, err := vm.New(c.LIR, vm.Options{Out: &out, Bounds: c.Bounds})
		if err != nil {
			t.Fatal(err)
		}
		if got := vm.Views(m); vm.Splits(m) > 0 && got != procs-1 {
			t.Fatalf("GOMAXPROCS=%d: %d views, want %d", procs, got, procs-1)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		settled(t, before)
		r = splitRun{out: out.String(), steps: res.Steps, arrays: map[string][]uint64{}, slots: map[string]uint64{}, splits: vm.Splits(m)}
		for name := range c.LIR.Source.Arrays {
			for _, v := range m.ArrayData(name) {
				r.arrays[name] = append(r.arrays[name], math.Float64bits(v))
			}
		}
		for name, v := range m.Scalars() {
			r.slots[name] = math.Float64bits(v)
		}
	})
	return r
}

// TestSplitMatchesOneProc: a whole-program machine that runs its large
// dependence-free nests in chunks on two goroutines prints the same
// transcript, charges the same steps and leaves every array and scalar
// with the same bits as at GOMAXPROCS 1, where each such nest is one
// chunk on the calling goroutine: for the six benchmarks and heat above
// the split threshold, at the ladder ends. No goroutine outlives a run.
func TestSplitMatchesOneProc(t *testing.T) {
	total := 0
	for _, p := range splitPrograms(t) {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			c := compileSplit(t, p, lvl)
			one, two := runSplit(t, c, 1), runSplit(t, c, 2)
			id := p.Name + "/" + lvl.String()
			total += two.splits
			if one.out != two.out || one.steps != two.steps {
				t.Errorf("%s: GOMAXPROCS 2: %d steps, %q; 1: %d steps, %q", id, two.steps, two.out, one.steps, one.out)
			}
			for name, want := range one.arrays {
				got := two.arrays[name]
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: %s[%d] is %#x at GOMAXPROCS 2, %#x at 1", id, name, i, got[i], want[i])
						break
					}
				}
			}
			for name, want := range one.slots {
				if got := two.slots[name]; got != want {
					t.Errorf("%s: scalar %s is %#x at GOMAXPROCS 2, %#x at 1", id, name, got, want)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no machine split a nest")
	}
}

// heatSplit is heat at n=192, c2+f4, whose initialising nests split.
func heatSplit(t *testing.T) *driver.Compilation {
	t.Helper()
	ps := splitPrograms(t)
	return compileSplit(t, ps[len(ps)-1], core.C2F4)
}

// TestSplitChunkFault: a panic in a chunk's goroutine comes back as
// Run's runtime-fault error, not a crash, after every chunk has ended.
func TestSplitChunkFault(t *testing.T) {
	c := heatSplit(t)
	defer vm.SetChunkHook(func(chunk int) { panic("seeded chunk fault") })()
	atProcs(2, func() {
		before := runtime.NumGoroutine()
		m, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds})
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		if err == nil || err.Error() != "vm: runtime fault: seeded chunk fault" {
			t.Errorf("Run = %v, want the seeded chunk fault as a runtime fault", err)
		}
		settled(t, before)
	})
}

// TestSplitCancel: a context cancelled while a split nest runs stops
// the run at the next row any chunk starts, as an unsplit nest's does.
func TestSplitCancel(t *testing.T) {
	c := heatSplit(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer vm.SetChunkHook(func(chunk int) { cancel() })()
	atProcs(2, func() {
		before := runtime.NumGoroutine()
		m, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds, Ctx: ctx})
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "execution cancelled after") {
			t.Errorf("Run = %v, want a cancellation", err)
		}
		settled(t, before)
	})
}
