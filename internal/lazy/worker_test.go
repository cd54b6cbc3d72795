package lazy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/proctest"
)

// TestMain fails the package if a child process outlives its tests, and
// removes the artifact store the native cells build into.
func TestMain(m *testing.M) {
	code := proctest.Main(m)
	matrix.RemoveStore()
	os.Exit(code)
}

// nativeEngine is a native-backend engine closed when the test ends; the
// test is skipped without a toolchain or a child count.
func nativeEngine(t *testing.T, opt Options) *Engine {
	t.Helper()
	if !backend.Available() {
		t.Skip("no go toolchain")
	}
	if _, err := proctest.Children(); err != nil {
		t.Skipf("no child count here: %v", err)
	}
	opt.Backend, opt.ArtifactDir = driver.BackendGo, t.TempDir()
	e := NewEngine(opt)
	t.Cleanup(func() { e.Close() })
	return e
}

// workers is liveWorkers(e), and fails the test unless every child
// process of the test is one of them.
func workers(t *testing.T, e *Engine) int {
	t.Helper()
	n := liveWorkers(e)
	if kids, err := proctest.Children(); err != nil || len(kids) != n {
		t.Errorf("%d child processes (%v) for %d workers kept", len(kids), err, n)
	}
	return n
}

// jacobiGrid runs the init batch and sweeps Jacobi sweeps of jacobiStep
// on e, calling between(i) after sweep i, and returns the final grid
// and residual.
func jacobiGrid(t *testing.T, e *Engine, sweeps int, between func(int)) []float64 {
	t.Helper()
	R2 := R(1, 10, 1, 10)
	cur, nxt := e.Array("cur", R2), e.Array("nxt", R2)
	res := e.Scalar("res", 0)
	cur.Assign(nil, Mul(Index(1), Index(2)))
	for i := 0; i < sweeps; i++ {
		cur, nxt = jacobiStep(e, cur, nxt, res)
		if err := e.Eval(); err != nil {
			t.Fatalf("sweep %d: %v", i+1, err)
		}
		if between != nil {
			between(i)
		}
	}
	v, err := cur.Values()
	if err != nil {
		t.Fatal(err)
	}
	return append(v, res.val)
}

// TestNativeWorkerKilledBetweenEvals: a worker killed from outside
// between two Evals is seen dead at the next one, which starts a fresh
// worker and computes the grid an undisturbed engine does.
func TestNativeWorkerKilledBetweenEvals(t *testing.T) {
	want := jacobiGrid(t, NewEngine(Options{Level: core.C2F4S}), 6, nil)
	e := nativeEngine(t, Options{Level: core.C2F4S})
	got := jacobiGrid(t, e, 6, func(i int) {
		if i != 2 {
			return
		}
		kids, _ := proctest.Children()
		for _, pid := range kids {
			if p, err := os.FindProcess(pid); err != nil || p.Kill() != nil {
				t.Fatalf("cannot kill worker %d: %v", pid, err)
			}
		}
		for _, r := range e.resident {
			for deadline := time.Now().Add(10 * time.Second); r.x != nil && r.x.alive(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("a killed worker still reads as alive")
				}
			}
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("grid after a worker was killed mid-solve:\n%v\nwant\n%v", got, want)
	}
	if e.starts != 3 {
		t.Errorf("%d workers started, want 3: the init batch's, the sweep's and its replacement", e.starts)
	}
	workers(t, e)
}

// TestNativeDeadlineRetiresWorker: an EvalCtx whose deadline expires
// mid-run returns the context's error, stops the worker and leaves host
// data as it was; the next Eval starts a fresh worker and is right.
func TestNativeDeadlineRetiresWorker(t *testing.T) {
	e := nativeEngine(t, Options{Level: core.Baseline})
	const n = 512
	a, b := e.Array("a", R(1, n, 1, n)), e.Array("b", R(1, n, 1, n))
	a.Assign(nil, Index(1))
	if err := e.Eval(); err != nil {
		t.Fatal(err)
	}
	// About 40 transcendental sweeps over 256 Ki elements: tens of
	// milliseconds at least.
	chain := func() {
		for i := 0; i < 20; i++ {
			b.Assign(nil, Call("sin", Add(a, Const(1))))
			a.Assign(nil, Call("cos", b))
		}
	}
	chain()
	if err := e.Eval(); err != nil {
		t.Fatal(err)
	}
	ha, hb := slices.Clone(a.data), slices.Clone(b.data)

	chain()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.EvalCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EvalCtx past its deadline: %v, want DeadlineExceeded", err)
	}
	if !slices.Equal(a.data, ha) || !slices.Equal(b.data, hb) {
		t.Error("a cancelled run changed host data")
	}
	if got := workers(t, e); got != 1 {
		t.Errorf("%d workers kept after the cancelled run, want the init batch's only", got)
	}

	// The context's error is sticky (TestConcurrentEvalCtx). Clearing it
	// shows that the engine kept nothing of the cancelled run.
	e.err = nil
	chain()
	if err := e.Eval(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		for j := range ha {
			hb[j] = math.Sin(ha[j] + 1)
			ha[j] = math.Cos(hb[j])
		}
	}
	if !slices.Equal(a.data, ha) || !slices.Equal(b.data, hb) {
		t.Error("the Eval after a cancelled one computed a different grid")
	}
	if e.starts != 3 {
		t.Errorf("%d workers started, want 3: the init batch's, the chain's and its replacement", e.starts)
	}
}

// TestNativeTrapRetiresWorker: a program that traps fails its Eval with
// a *backend.RunError trap, leaves host data as it was and keeps no
// worker.
func TestNativeTrapRetiresWorker(t *testing.T) {
	e := nativeEngine(t, Options{Level: core.C2F4S})
	e.noProve = true
	e.emitHook = func(goSrc string) string {
		return strings.Replace(goSrc, "func za_main() {", "func za_main() {\n\tzaTrapSelfTest()", 1) +
			"\nfunc zaTrapSelfTest() {\n\tvar s []float64\n\t_ = s[1]\n}\n"
	}
	a := e.Array("a", R(1, 8))
	host := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := a.SetValues(host); err != nil {
		t.Fatal(err)
	}
	a.Assign(nil, Add(a, Const(1)))
	var re *backend.RunError
	if err := e.Eval(); !errors.As(err, &re) || !re.Trap {
		t.Fatalf("Eval of a trapping program: %v, want a *backend.RunError trap", err)
	}
	if !slices.Equal(a.data, host) {
		t.Errorf("a trapped run changed host data: %v", a.data)
	}
	if got := workers(t, e); got != 0 {
		t.Errorf("%d workers kept after a trap", got)
	}
}

// TestNativeEvalsLeaveNoResidue: a thousand steady-state Evals run on
// the two workers the first Evals started and leave the open descriptor,
// child process and state mapping counts where they were.
func TestNativeEvalsLeaveNoResidue(t *testing.T) {
	e := nativeEngine(t, Options{Level: core.C2F4S})
	var fds, kids, maps int
	jacobiGrid(t, e, 1002, func(i int) {
		if i != 1 && i != 1001 {
			return
		}
		f, err := proctest.OpenFDs()
		if err != nil {
			t.Fatal(err)
		}
		m, err := proctest.Mappings()
		if err != nil {
			t.Fatal(err)
		}
		k := workers(t, e)
		if i == 1 {
			fds, kids, maps = f, k, m
		} else if f != fds || k != kids || m != maps {
			t.Errorf("after 1000 Evals: %d descriptors, %d workers and %d mappings, %d, %d and %d before", f, k, m, fds, kids, maps)
		}
	})
	if e.starts != 2 {
		t.Errorf("%d workers started for two shapes", e.starts)
	}
}

// TestEngineCloseStopsWorkers: Close stops every worker and leaves the
// engine usable: the next native Eval starts its worker again.
func TestEngineCloseStopsWorkers(t *testing.T) {
	e := nativeEngine(t, Options{Level: core.C2F4S})
	want := jacobiGrid(t, e, 3, nil)
	if got := workers(t, e); got != 2 {
		t.Fatalf("%d workers for two shapes", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := workers(t, e); got != 0 {
		t.Errorf("%d workers after Close", got)
	}
	if got := jacobiGrid(t, e, 3, nil); !slices.Equal(got, want) {
		t.Errorf("grid after Close: %v, want %v", got, want)
	}
	if e.starts != 4 || e.CacheStats().Misses != 2 {
		t.Errorf("%d workers started and %+v after Close, want 4 and no recompile", e.starts, e.CacheStats())
	}
}

// TestUnclosedEngineReaped: the worker of an engine that becomes
// unreachable without Close is stopped once the collector finds it.
func TestUnclosedEngineReaped(t *testing.T) {
	nativeEngine(t, Options{}) // the skips
	dir := t.TempDir()
	func() {
		e := NewEngine(Options{Backend: driver.BackendGo, ArtifactDir: dir})
		e.Array("a", R(1, 4)).Assign(nil, Const(1))
		if err := e.Eval(); err != nil {
			t.Fatal(err)
		}
		if kids, _ := proctest.Children(); len(kids) != 1 {
			t.Fatalf("children %v, want the engine's worker", kids)
		}
		runtime.KeepAlive(e)
	}()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		if kids, _ := proctest.Children(); len(kids) == 0 {
			return
		}
	}
	t.Fatal("an unreachable engine's worker outlives it")
}

// solver is jacobiGrid's solve, a sweep at a time: sweep swaps cur and
// nxt only when its Eval succeeds.
type solver struct {
	e        *Engine
	cur, nxt *Handle
	res, tot *ScalarHandle
}

func newSolver(t *testing.T, e *Engine) *solver {
	t.Helper()
	R2 := R(1, 10, 1, 10)
	s := &solver{e: e, cur: e.Array("cur", R2), nxt: e.Array("nxt", R2), res: e.Scalar("res", 0), tot: e.Scalar("tot", 0)}
	s.cur.Assign(nil, Mul(Index(1), Index(2)))
	if err := e.Eval(); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *solver) sweep(ctx context.Context) error {
	jacobiStep(s.e, s.cur, s.nxt, s.res)
	if err := s.e.EvalCtx(ctx); err != nil {
		return err
	}
	s.cur, s.nxt = s.nxt, s.cur
	return nil
}

// sum is a batch of another shape, which reads cur only.
func (s *solver) sum() error {
	s.tot.Sum(s.cur.region, s.cur)
	return s.e.Eval()
}

// agree fails the test unless the handles and scalars of got hold the
// bits those of want do.
func agree(t *testing.T, what string, got, want *solver) {
	t.Helper()
	for _, p := range [][2]*Handle{{got.cur, want.cur}, {got.nxt, want.nxt}} {
		g, err := p[0].Values()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		w, _ := p[1].Values()
		if !slices.EqualFunc(g, w, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: %s = %v, want %v", what, p[0].name, g, w)
		}
	}
	for _, p := range [][2]*ScalarHandle{{got.res, want.res}, {got.tot, want.tot}} {
		if g, _ := p[0].Value(); math.Float64bits(g) != math.Float64bits(p[1].val) {
			t.Fatalf("%s: %s = %v, want %v", what, p[0].name, g, p[1].val)
		}
	}
}

// TestNativeSlabsOutliveWorker: handles whose storage is a worker's pool
// slab keep their values whichever way the worker ends — Engine.Close,
// ClearCache, eviction, a trap, a missed deadline, a kill between Evals,
// and the end of an entry too large to cache, whose worker serves one run
// — and the next Evals are right: every handle and scalar holds a VM
// engine's bits after each. Close leaves no state mapping behind.
func TestNativeSlabsOutliveWorker(t *testing.T) {
	nativeEngine(t, Options{}) // the skips
	before, err := proctest.Mappings()
	if err != nil {
		t.Skipf("no mapping count here: %v", err)
	}
	kill := func(t *testing.T, e *Engine) {
		kids, _ := proctest.Children()
		for _, pid := range kids {
			if p, err := os.FindProcess(pid); err != nil || p.Kill() != nil {
				t.Fatalf("cannot kill worker %d: %v", pid, err)
			}
		}
		for _, r := range e.resident {
			for deadline := time.Now().Add(10 * time.Second); r.x != nil && r.x.alive(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("a killed worker still reads as alive")
				}
			}
		}
	}
	// The sweep's and the sum's entries, measured on an unbounded engine:
	// room for the larger and half the smaller holds one, never both.
	probe := newSolver(t, nativeEngine(t, Options{Level: core.C2F4S}))
	if probe.sweep(context.Background()) != nil || probe.sum() != nil {
		t.Fatal("probe engine failed")
	}
	smallest, largest := int64(math.MaxInt64), int64(0)
	for k := range probe.e.resident {
		el, _ := probe.e.cache.Peek(k)
		smallest, largest = min(smallest, el.Size), max(largest, el.Size)
	}
	probe.e.Close()

	for _, tc := range []struct {
		name string
		opt  Options // beside Level
		// end ends the worker of the sweep that ran last and reports
		// whether it did so by failing an Eval, which the VM skips.
		end func(t *testing.T, nat, vm *solver) (failed bool)
	}{
		{"Close", Options{}, func(t *testing.T, nat, _ *solver) bool { return nat.e.Close() != nil }},
		{"ClearCache", Options{}, func(t *testing.T, nat, _ *solver) bool { nat.e.ClearCache(); return false }},
		{"eviction", Options{CacheBytes: largest + smallest/2}, func(t *testing.T, nat, vm *solver) bool {
			if err := nat.sum(); err != nil || nat.e.CacheStats().Evictions == 0 {
				t.Fatalf("the sum batch evicted nothing: %v, %+v", err, nat.e.CacheStats())
			}
			return vm.sum() != nil
		}},
		// Unproven, so that the trap scaffold turns the panic into a trap.
		{"trap", Options{}, func(t *testing.T, nat, _ *solver) bool {
			var re *backend.RunError
			return errors.As(nat.sweep(context.Background()), &re) && re.Trap
		}},
		{"deadline", Options{}, func(t *testing.T, nat, _ *solver) bool {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now())
			defer cancel()
			return errors.Is(nat.sweep(ctx), context.DeadlineExceeded)
		}},
		{"kill", Options{}, func(t *testing.T, nat, _ *solver) bool { kill(t, nat.e); return false }},
		{"oversize", Options{CacheBytes: 1}, func(t *testing.T, nat, _ *solver) bool { return false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm := newSolver(t, NewEngine(Options{Level: core.C2F4S}))
			opt := tc.opt
			opt.Level = core.C2F4S
			e := nativeEngine(t, opt)
			e.noProve = tc.name == "trap"
			nat := newSolver(t, e)
			for i := 0; i < 3; i++ {
				if nat.sweep(context.Background()) != nil || vm.sweep(context.Background()) != nil {
					t.Fatal("a sweep failed")
				}
			}
			if tc.name == "trap" {
				// Every later compile traps on its worker's third run: the
				// sweep recompiles, and its worker runs twice right first.
				e.emitHook = trapOnRun(3)
				e.ClearCache()
				for i := 0; i < 2; i++ {
					if nat.sweep(context.Background()) != nil || vm.sweep(context.Background()) != nil {
						t.Fatal("a sweep failed")
					}
				}
			}
			if tc.end(t, nat, vm) {
				e.err = nil // sticky; the engine kept nothing of the failed run
			} else if tc.name != "eviction" && tc.name != "Close" {
				if err := vm.sweep(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := nat.sweep(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			agree(t, "after the worker ended", nat, vm)
			for i := 0; i < 2; i++ {
				if nat.sweep(context.Background()) != nil || vm.sweep(context.Background()) != nil {
					t.Fatalf("sweep %d after the worker ended failed: %v", i+1, e.err)
				}
				agree(t, fmt.Sprintf("sweep %d after the worker ended", i+1), nat, vm)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := proctest.Mappings(); err != nil || got != before {
				t.Errorf("%d state mappings after Close, %d before the engine: %v", got, before, err)
			}
		})
	}
}

// trapOnRun rewrites a worker's source so that its nth run traps.
func trapOnRun(n int) func(string) string {
	return func(goSrc string) string {
		return strings.Replace(goSrc, "func za_main() {", "func za_main() {\n\tzaTrapSelfTest()", 1) +
			fmt.Sprintf("\nvar zaTrapRuns int\n\nfunc zaTrapSelfTest() {\n\tif zaTrapRuns++; zaTrapRuns == %d {\n\t\tvar s []float64\n\t\t_ = s[1]\n\t}\n}\n", n)
	}
}
