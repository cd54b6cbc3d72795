package backend_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/gogen"
	"repro/internal/proctest"
)

func TestMain(m *testing.M) { os.Exit(proctest.Main(m)) }

func requireToolchain(t *testing.T) {
	t.Helper()
	if !backend.Available() {
		t.Skip("no go toolchain on PATH")
	}
}

// store is the oracle's: the cells of this package's matrix rows and
// the tests below build into one store, so an emission two of them
// reach is built once.
var store = matrix.Store()

// TestArtifactCacheHit: rebuilding an identical program must be a
// store hit that skips the toolchain.
func TestArtifactCacheHit(t *testing.T) {
	requireToolchain(t)
	src, err := os.ReadFile("../../testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	// A build that panics (exec.CommandContext does, on a nil Context)
	// reaches its caller and leaves the key free: the same source builds
	// on the next call. The suffix keeps the key cold on every run.
	goSrc, err := gogen.Emit(c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	goSrc += "\n// built " + time.Now().Format(time.RFC3339Nano) + "\n"
	func() {
		defer func() {
			var pe *flight.PanicError
			if r, _ := recover().(error); !errors.As(r, &pe) {
				t.Errorf("the build's panic did not reach its caller as a *flight.PanicError: %v", r)
			}
		}()
		var none context.Context
		store.Build(none, goSrc)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if art, err := store.Build(ctx, goSrc); err != nil || art.Hit {
		t.Fatalf("build after a panicked build of the same key: %+v, %v", art, err)
	}

	a1, _, err := store.BuildProgram(context.Background(), c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := store.BuildProgram(context.Background(), c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Key != a2.Key {
		t.Fatalf("keys differ for identical source: %s vs %s", a1.Key, a2.Key)
	}
	if !a2.Hit {
		t.Error("second build of identical source was not a store hit")
	}
	st := store.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stats not tracking: %+v", st)
	}
}

// TestTwoStoresBuildOneKey: two Stores on one directory (two zpl
// Contexts with the default ArtifactDir, two zpld nodes in one process)
// build one key at the same time. Each build writes a temporary of its
// own, so every Build succeeds and every binary is whole. A shared
// temporary failed about one round in seven here, so the test runs ten
// rounds, each on a key of its own.
func TestTwoStoresBuildOneKey(t *testing.T) {
	requireToolchain(t)
	dir := t.TempDir()
	var stores [2]*backend.Store
	for i := range stores {
		s, err := backend.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for round := 0; round < 10; round++ {
		want := fmt.Sprintf("round %d\n", round)
		src := fmt.Sprintf("package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Print(%q) }\n", want)
		arts := make([]*backend.Artifact, 8)
		errs := make([]error, len(arts))
		var wg sync.WaitGroup
		for i := range arts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				arts[i], errs[i] = stores[i%2].Build(ctx, src)
			}()
		}
		wg.Wait()
		for i, art := range arts {
			if errs[i] != nil {
				t.Fatalf("round %d, build %d: %v", round, i, errs[i])
			}
			var out bytes.Buffer
			if _, err := art.Run(ctx, &out); err != nil || out.String() != want {
				t.Fatalf("round %d, binary of build %d: %q, %v", round, i, out.String(), err)
			}
		}
	}
}

// TestBuildErrorDiagnostics: a toolchain failure must classify as
// *BuildError and carry the diagnostics.
func TestBuildErrorDiagnostics(t *testing.T) {
	requireToolchain(t)
	_, err := store.Build(context.Background(), "package main\n\nfunc main() { undefinedIdentifier() }\n")
	if err == nil {
		t.Fatal("build of broken source succeeded")
	}
	var be *backend.BuildError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BuildError: %v", err, err)
	}
	if !strings.Contains(be.Diagnostics, "undefinedIdentifier") {
		t.Errorf("diagnostics missing the offending identifier:\n%s", be.Diagnostics)
	}
}

// TestRunTrapExitCode: a runtime fault in generated code must be
// caught by the gogen scaffold, exit with gogen.ExitTrap, and
// classify as a *RunError trap.
func TestRunTrapExitCode(t *testing.T) {
	requireToolchain(t)
	src, err := os.ReadFile("../../testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	goSrc, err := gogen.Emit(c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	// Inject an out-of-bounds access as the first statement of
	// za_main: the scaffold, not the test, must turn the panic into
	// the distinct trap exit code.
	const marker = "func za_main() {"
	if !strings.Contains(goSrc, marker) {
		t.Fatalf("emitted source has no za_main:\n%s", goSrc)
	}
	faulty := strings.Replace(goSrc, marker, marker+"\n\tzaTrapSelfTest()", 1) +
		"\nfunc zaTrapSelfTest() {\n\tvar s []float64\n\t_ = s[1]\n}\n"
	art, err := store.Build(context.Background(), faulty)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var out bytes.Buffer
	_, err = art.Run(context.Background(), &out)
	var re *backend.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError: %v", err, err)
	}
	if !re.Trap || re.ExitCode != gogen.ExitTrap {
		t.Errorf("trap not classified: %+v", re)
	}
	if !strings.Contains(re.Stderr, "za runtime error") {
		t.Errorf("stderr missing trap report: %q", re.Stderr)
	}
}

// TestRunDeadline: a deadline expiring mid-run must surface as the
// context error, not a RunError.
func TestRunDeadline(t *testing.T) {
	requireToolchain(t)
	// A deliberate spin: emitted-code shape, never terminates.
	src := `package main

import (
	"fmt"
	"os"
	"time"
)

var za_x float64

func za_main() {
	for za_x >= 0 {
		za_x++
	}
}

func main() {
	t0 := time.Now()
	za_main()
	if os.Getenv("ZPL_TIME_NS") != "" {
		fmt.Fprintf(os.Stderr, "za_elapsed_ns %d\n", time.Since(t0).Nanoseconds())
	}
}
`
	art, err := store.Build(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = art.Run(ctx, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want DeadlineExceeded", err)
	}
}

// TestRunReportsComputeTime: the self-timing hook must deliver a
// nonzero compute time without polluting stdout.
func TestRunReportsComputeTime(t *testing.T) {
	requireToolchain(t)
	src, err := os.ReadFile("../../testdata/rowsums.za")
	if err != nil {
		t.Fatal(err)
	}
	c, err := driver.Compile(string(src), driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	art, _, err := store.BuildProgram(context.Background(), c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stats, err := art.Run(context.Background(), &out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compute <= 0 {
		t.Errorf("compute time not reported: %+v", stats)
	}
	if stats.Compute > stats.Wall {
		t.Errorf("compute %v exceeds wall %v", stats.Compute, stats.Wall)
	}
	if strings.Contains(out.String(), gogen.ElapsedPrefix) {
		t.Errorf("timing line leaked into stdout: %q", out.String())
	}
}

// TestBackendBitIdentical is the native row of the matrix: every
// testdata program at the ladder ends (-full: every level), and every
// benchmark under its golden tuned plan (-full: also at every level),
// prints the VM's bytes when built natively.
func TestBackendBitIdentical(t *testing.T) {
	requireToolchain(t)
	if testing.Short() {
		t.Skip("invokes the go toolchain repeatedly")
	}
	var cells []matrix.Cell
	for _, p := range matrix.Testdata(t) {
		for _, lvl := range matrix.Ladder(core.Baseline, core.C2F3) {
			cells = append(cells, p.At(lvl, matrix.Go))
		}
	}
	for _, p := range matrix.Benchmarks() {
		c := p.At(core.Baseline, matrix.Go)
		c.Name, c.Opt.Plan = "plan/"+p.Name, matrix.GoldenPlan(t, p.Name)
		cells = append(cells, c)
		if matrix.Full() {
			for _, lvl := range core.AllLevels() {
				cells = append(cells, p.At(lvl, matrix.Go))
			}
		}
	}
	matrix.Run(t, cells...)
}

// TestSeedFaultCaught is the -checkfault-style self-test: a seeded
// code-generator miscompile in the go column must be reported by the
// matrix — proving its bit-identity assertion has teeth.
func TestSeedFaultCaught(t *testing.T) {
	requireToolchain(t)
	src, err := os.ReadFile("../../testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	c := matrix.Program{Name: "quickstart.za", Src: string(src)}.At(core.C2F3, matrix.Go)
	c.Miscompile = backend.SeedFault
	_, bad := matrix.Diff(c)
	want := c.Name + " go: transcript differs from vm"
	for _, b := range bad {
		if strings.HasPrefix(b, want) {
			return
		}
	}
	t.Errorf("the matrix missed the seeded miscompile; its findings: %q", bad)
}

// workerOf compiles src and builds it as a resident worker whose state
// is every allocated array and every scalar, in sorted order; bounds
// are left unproven, so the trap scaffold stays. It returns the
// artifact, the compilation and the spec.
func workerOf(t testing.TB, src string, edit func(goSrc string) string) (*backend.Artifact, *driver.Compilation, *gogen.StateSpec) {
	t.Helper()
	c, err := driver.Compile(src, driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	spec := &gogen.StateSpec{}
	for n, a := range c.LIR.Source.Arrays {
		if !a.Contracted {
			spec.Arrays = append(spec.Arrays, n)
		}
	}
	for n := range c.LIR.Source.Scalars {
		spec.Scalars = append(spec.Scalars, n)
	}
	sort.Strings(spec.Arrays)
	sort.Strings(spec.Scalars)
	goSrc, err := gogen.EmitState(c.LIR, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		goSrc = edit(goSrc)
	}
	art, err := store.Build(context.Background(), goSrc)
	if err != nil {
		t.Fatal(err)
	}
	return art, c, spec
}

// start starts art as a worker over words float64s and closes it when
// the test ends.
func start(t *testing.T, art *backend.Artifact, words int) *backend.Worker {
	t.Helper()
	w, err := art.Start(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// counter adds 1 to every element of A and prints the sum twice.
const counter = `
program counter;
config n : integer = 8;
region R = [1..n];
var A : [R] double;
var s : double;
proc main()
begin
  [R] A := A + 1;
  s := +<< [R] A;
  writeln("s =", s);
  writeln("again", s);
end;
`

// TestStateProtocolRoundTrip: a worker's runs continue from the state
// in its mapping — zeros at first, then what the host seeds and what
// the last run left — and each run's writeln output reaches out in
// order before Run returns: the mechanism that lets the lazy runtime
// run one cached binary for every timestep of an iterative solver. A
// mapping of another size than the spec lays out is refused with a
// state error before the worker serves.
func TestStateProtocolRoundTrip(t *testing.T) {
	requireToolchain(t)
	art, c, spec := workerOf(t, counter, nil)
	words := gogen.StateWords(c.LIR, spec)
	size := c.LIR.Source.Arrays[spec.Arrays[0]].Alloc.Size()
	if len(spec.Arrays) != 1 || words != size+len(spec.Scalars) {
		t.Fatalf("program shape changed: spec %+v, %d words", spec, words)
	}
	sAt := size + sort.SearchStrings(spec.Scalars, "s")
	if spec.Scalars[sAt-size] != "s" {
		t.Fatalf("no scalar s in %v", spec.Scalars)
	}
	w := start(t, art, words)
	state := w.State()
	if len(state) != words {
		t.Fatalf("State() holds %d words, want %d", len(state), words)
	}

	var out bytes.Buffer
	run := func(want float64) {
		t.Helper()
		if err := w.Run(context.Background(), &out); err != nil {
			t.Fatal(err)
		}
		for i, v := range state[:size] {
			if v != want/float64(size) {
				t.Fatalf("A[%d] = %g after the run, want %g", i, v, want/float64(size))
			}
		}
		if state[sAt] != want {
			t.Fatalf("s = %g after the run, want %g", state[sAt], want)
		}
	}
	run(8) // from zeros: A is all ones
	for i := range state[:size] {
		state[i] = 10 // seeded by the host
	}
	run(88)
	run(96) // from what the last run left
	if want := "s = 8\nagain 8\ns = 88\nagain 88\ns = 96\nagain 96\n"; out.String() != want {
		t.Errorf("output %q, want %q", out.String(), want)
	}

	_, err := art.Start(context.Background(), words+1)
	var re *backend.RunError
	if !errors.As(err, &re) || !re.Trap || !strings.Contains(re.Stderr, "za state error") {
		t.Fatalf("a mapping one word too long: %v, want a *RunError trap with a state error", err)
	}
}

// TestWorkerFailures: a worker killed from outside between runs is seen
// dead and its next run is an abnormal exit, not a hang; a deadline that
// expires mid-run kills it and returns the context's error; a trap ends
// it with a *RunError trap. After each a fresh worker of the same
// artifact runs right.
func TestWorkerFailures(t *testing.T) {
	requireToolchain(t)
	art, c, spec := workerOf(t, counter, nil)
	words := gogen.StateWords(c.LIR, spec)

	w := start(t, art, words)
	kids, err := proctest.Children()
	if err != nil {
		t.Skipf("no child count here: %v", err)
	}
	if len(kids) != 1 {
		t.Fatalf("children %v, want the worker alone", kids)
	}
	if p, err := os.FindProcess(kids[0]); err != nil || p.Kill() != nil {
		t.Fatalf("cannot kill the worker: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); w.Alive(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a killed worker still reads as alive")
		}
	}
	var re *backend.RunError
	if err := w.Run(context.Background(), nil); !errors.As(err, &re) || re.Trap {
		t.Fatalf("run of a killed worker: %v, want a *RunError that is no trap", err)
	}
	var out bytes.Buffer
	if err := start(t, art, words).Run(context.Background(), &out); err != nil || out.String() != "s = 8\nagain 8\n" {
		t.Fatalf("fresh worker after a kill: %q, %v", out.String(), err)
	}

	// s counts up from its seed while it is not negative.
	spin, sc, sspec := workerOf(t, `
program spin;
var s : double;
proc main()
begin
  while s >= 0.0 do
    s := s + 1.0;
  end;
  writeln("s", s);
end;
`, nil)
	w = start(t, spin, gogen.StateWords(sc.LIR, sspec))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := w.Run(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run past its deadline: %v, want DeadlineExceeded", err)
	}
	w.Close()
	w = start(t, spin, gogen.StateWords(sc.LIR, sspec))
	w.State()[sort.SearchStrings(sspec.Scalars, "s")] = -2.5
	out.Reset()
	if err := w.Run(context.Background(), &out); err != nil || out.String() != "s -2.5\n" {
		t.Fatalf("fresh worker after a deadline: %q, %v", out.String(), err)
	}

	trap, _, _ := workerOf(t, counter, func(goSrc string) string {
		return strings.Replace(goSrc, "func za_main() {", "func za_main() {\n\tzaTrapSelfTest()", 1) +
			"\nfunc zaTrapSelfTest() {\n\tvar s []float64\n\t_ = s[1]\n}\n"
	})
	w = start(t, trap, words)
	if err := w.Run(context.Background(), nil); !errors.As(err, &re) || !re.Trap || re.ExitCode != gogen.ExitTrap ||
		!strings.Contains(re.Stderr, "za runtime error") {
		t.Fatalf("trapping run: %v, want a *RunError trap", err)
	}
	w.Close()
	if w.Alive() {
		t.Error("a closed worker reads as alive")
	}
}

// BenchmarkWorkerRun times one run of a resident worker whose kernel is
// eight additions and a sum: the command byte, the reply frame and the
// two pipe wake-ups a native lazy Eval pays beyond its kernel and
// copies.
func BenchmarkWorkerRun(b *testing.B) {
	if !backend.Available() {
		b.Skip("no go toolchain on PATH")
	}
	art, c, spec := workerOf(b, counter, nil)
	w, err := art.Start(context.Background(), gogen.StateWords(c.LIR, spec))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}
