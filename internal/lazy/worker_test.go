package lazy

import (
	"context"
	"errors"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/proctest"
)

func TestMain(m *testing.M) { os.Exit(proctest.Main(m)) }

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
			for deadline := time.Now().Add(10 * time.Second); r.native != nil && r.native.w.Alive(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("a killed worker still reads as alive")
				}
			}
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("grid after a worker was killed mid-solve:\n%v\nwant\n%v", got, want)
	}
	if e.workerStarts != 3 {
		t.Errorf("%d workers started, want 3: the init batch's, the sweep's and its replacement", e.workerStarts)
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
	if e.workerStarts != 3 {
		t.Errorf("%d workers started, want 3: the init batch's, the chain's and its replacement", e.workerStarts)
	}
}

// TestNativeTrapRetiresWorker: a program that traps fails its Eval with
// a *backend.RunError trap, leaves host data as it was and keeps no
// worker.
func TestNativeTrapRetiresWorker(t *testing.T) {
	e := nativeEngine(t, Options{Level: core.C2F4S, NoProve: true})
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
// the two workers the first Evals started and leave the open descriptor
// and child process counts where they were.
func TestNativeEvalsLeaveNoResidue(t *testing.T) {
	e := nativeEngine(t, Options{Level: core.C2F4S})
	var fds, kids int
	jacobiGrid(t, e, 1002, func(i int) {
		if i != 1 && i != 1001 {
			return
		}
		f, err := proctest.OpenFDs()
		if err != nil {
			t.Fatal(err)
		}
		k := workers(t, e)
		if i == 1 {
			fds, kids = f, k
		} else if f != fds || k != kids {
			t.Errorf("after 1000 Evals: %d descriptors and %d workers, %d and %d before", f, k, fds, kids)
		}
	})
	if e.workerStarts != 2 {
		t.Errorf("%d workers started for two shapes", e.workerStarts)
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
	if e.workerStarts != 4 || e.CacheStats().Misses != 2 {
		t.Errorf("%d workers started and %+v after Close, want 4 and no recompile", e.workerStarts, e.CacheStats())
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
