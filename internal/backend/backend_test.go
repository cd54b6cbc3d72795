package backend_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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

// TestMain fails the package if a child process outlives its tests, and
// removes the artifact store the native cells build into.
func TestMain(m *testing.M) {
	code := proctest.Main(m)
	matrix.RemoveStore()
	os.Exit(code)
}

func requireToolchain(t *testing.T) {
	t.Helper()
	if !backend.Available() {
		t.Skip("no go toolchain on PATH")
	}
}

// store is the oracle's: the cells of this package's matrix rows and
// the tests below build into one store, so an emission two of them
// reach is built once.
//
// A function, not a variable: a helper process (proctest.Helper) that
// never builds makes no store, since a killed one cannot remove it.
func store() *backend.Store { return matrix.Store() }

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
	a1, _, err := store().BuildProgram(context.Background(), c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := store().BuildProgram(context.Background(), c.LIR)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Key != a2.Key {
		t.Fatalf("keys differ for identical source: %s vs %s", a1.Key, a2.Key)
	}
	if !a2.Hit {
		t.Error("second build of identical source was not a store hit")
	}
	st := store().Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stats not tracking: %+v", st)
	}

	// A build that panics (exec.CommandContext does, on a nil Context)
	// reaches its caller and leaves the key free: the same source builds
	// on the next call. The suffix keeps the key cold on every run. It
	// comes after a build, which asked the go tool for its version: a
	// nil Context panics in that probe too, outside any flight.
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
		store().Build(none, goSrc)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if art, err := store().Build(ctx, goSrc); err != nil || art.Hit {
		t.Fatalf("build after a panicked build of the same key: %+v, %v", art, err)
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
// *BuildError, name the step that failed and carry the diagnostics,
// positioned in main.go and free of the store's temporary paths.
func TestBuildErrorDiagnostics(t *testing.T) {
	requireToolchain(t)
	for _, c := range []struct{ src, step, want string }{
		{"package main\n\nfunc main() { undefinedIdentifier() }\n", "compile", `(^|\n)main\.go:3:15: undefined: undefinedIdentifier`},
		// A main package without main compiles; the link refuses it.
		{"package main\n\nvar x int\n", "link", `function main is undeclared`},
	} {
		_, err := store().Build(context.Background(), c.src)
		if err == nil {
			t.Fatalf("build of broken source succeeded:\n%s", c.src)
		}
		var be *backend.BuildError
		if !errors.As(err, &be) {
			t.Fatalf("error is %T, want *BuildError: %v", err, err)
		}
		if be.Step != c.step || !strings.Contains(err.Error(), c.step+" failed") {
			t.Errorf("step %q (%v), want %s", be.Step, err, c.step)
		}
		if !regexp.MustCompile(c.want).MatchString(be.Diagnostics) {
			t.Errorf("diagnostics do not match %q:\n%s", c.want, be.Diagnostics)
		}
		if strings.Contains(be.Diagnostics, store().Dir()) || strings.Contains(be.Diagnostics, "prog.tmp") {
			t.Errorf("diagnostics name a store path:\n%s", be.Diagnostics)
		}
	}
}

// TestBuildCanceled: a build whose context ends while the toolchain
// runs returns the context's error, and leaves neither its temporary
// directory nor a child process behind.
func TestBuildCanceled(t *testing.T) {
	requireToolchain(t)
	if _, err := proctest.Children(); err != nil {
		t.Skipf("no child count here: %v", err)
	}
	// Thousands of statements: compile runs for a good part of a second.
	var src strings.Builder
	src.WriteString("package main\n\nvar x [4001]float64\n\nfunc main() {\n")
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&src, "\tx[%d] = x[%d]*1.5 + %d\n", i+1, i, i)
	}
	src.WriteString("}\n")
	s, err := backend.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tmps := func() []string {
		m, _ := filepath.Glob(filepath.Join(s.Dir(), "*", "prog.tmp*"))
		return m
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Build(ctx, src.String())
		done <- err
	}()
	for deadline := time.Now().Add(time.Minute); len(tmps()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the build never made its temporary directory")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build returned %v, want the context's error", err)
	}
	if left := tmps(); len(left) != 0 {
		t.Errorf("canceled build left %v", left)
	}
	if kids, err := proctest.Children(); err != nil || len(kids) != 0 {
		t.Errorf("children after a canceled build: %v, %v", kids, err)
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
	art, err := store().Build(context.Background(), faulty)
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
	art, err := store().Build(context.Background(), src)
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
	art, _, err := store().BuildProgram(context.Background(), c.LIR)
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

// TestRunReportsSystemTime: a successful run reports the kernel CPU
// time its process used. The kernel charges CPU time by sampling at its
// tick, so a process must spend several ticks in the kernel for its
// System to be above 0 for certain; a count of writes cannot promise
// that (50,000 pipe writes of a 17 ms run were charged 0 about one run
// in eight). This program maps, faults in and unmaps a 1 MiB region
// until its own rusage says it has been charged 50 ms of system time,
// five ticks at the slowest Linux tick rate (100 Hz), and the backend
// must report what the kernel charged.
func TestRunReportsSystemTime(t *testing.T) {
	requireToolchain(t)
	src := `package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
)

func main() {
	deadline := time.Now().Add(10 * time.Second)
	var ru syscall.Rusage
	for ru.Stime.Nano() < int64(50*time.Millisecond) {
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "charged", ru.Stime.Nano(), "ns of system time in 10 s")
			os.Exit(1)
		}
		mem, err := syscall.Mmap(-1, 0, 1<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i := 0; i < len(mem); i += os.Getpagesize() {
			mem[i] = 1
		}
		if err := syscall.Munmap(mem); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
`
	art, err := store().Build(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := art.Run(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if stats.System <= 0 {
		t.Errorf("system time not reported: %+v", stats)
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

// workerOf compiles src and builds it as a resident worker; bounds are
// left unproven, so the trap scaffold stays. It returns the artifact,
// the compilation and its state (gogen.StateOf).
func workerOf(t testing.TB, src string, edit func(goSrc string) string) (*backend.Artifact, *driver.Compilation, *gogen.StateSpec) {
	t.Helper()
	c, err := driver.Compile(src, driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	goSrc, err := gogen.EmitWorker(c.LIR, nil)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		goSrc = edit(goSrc)
	}
	art, err := store().Build(context.Background(), goSrc)
	if err != nil {
		t.Fatal(err)
	}
	return art, c, gogen.StateOf(c.LIR)
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

// layout is the plainest layout of spec over c: the slab of array k at
// word slabs[k], one after another after the header and the scalars, in
// a mapping of words float64s.
func layout(c *driver.Compilation, spec *gogen.StateSpec) (slabs []int, words int) {
	words = spec.Base()
	for _, a := range spec.Arrays {
		slabs = append(slabs, words)
		words += c.LIR.Source.Arrays[a].Alloc.Size()
	}
	return slabs, words
}

// startLaid is start over layout(c, spec), with each array pointed at
// its slab.
func startLaid(t *testing.T, art *backend.Artifact, c *driver.Compilation, spec *gogen.StateSpec) *backend.Worker {
	t.Helper()
	slabs, words := layout(c, spec)
	w := start(t, art, words)
	for k, at := range slabs {
		w.Point(k, at)
	}
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
// run one cached binary for every timestep of an iterative solver. The
// header moves an array between runs: pointed at a second slab, the run
// reads and writes there and leaves the first slab as it was.
func TestStateProtocolRoundTrip(t *testing.T) {
	requireToolchain(t)
	art, c, spec := workerOf(t, counter, nil)
	slabs, words := layout(c, spec)
	size := c.LIR.Source.Arrays[spec.Arrays[0]].Alloc.Size()
	if head := spec.Base(); len(spec.Arrays) != 1 || slabs[0] != head || words != head+size {
		t.Fatalf("program shape changed: spec %+v, slabs at %v of %d words", spec, slabs, words)
	}
	i := sort.SearchStrings(spec.Scalars, "s")
	if spec.Scalars[i] != "s" {
		t.Fatalf("no scalar s in %v", spec.Scalars)
	}
	sAt := spec.Scalar(i)
	w := start(t, art, words+size) // room for a second slab of A
	state := w.State()
	if len(state) != words+size {
		t.Fatalf("State() holds %d words, want %d", len(state), words+size)
	}
	first, second := state[words-size:words], state[words:]

	var out bytes.Buffer
	run := func(slab []float64, want float64) {
		t.Helper()
		if err := w.Run(context.Background(), &out); err != nil {
			t.Fatal(err)
		}
		for i, v := range slab {
			if v != want/float64(size) {
				t.Fatalf("A[%d] = %g after the run, want %g", i, v, want/float64(size))
			}
		}
		if state[sAt] != want {
			t.Fatalf("s = %g after the run, want %g", state[sAt], want)
		}
	}
	w.Point(0, slabs[0])
	run(first, 8) // from zeros: A is all ones
	for i := range first {
		first[i] = 10 // seeded by the host
	}
	run(first, 88)
	for i := range second {
		second[i] = 20
	}
	w.Point(0, words)
	run(second, 168)
	for i, v := range first {
		if v != 11 {
			t.Fatalf("first slab [%d] = %g after a run on the second, want the 11 it held", i, v)
		}
	}
	w.Point(0, slabs[0])
	run(first, 96) // from what the last run on it left
	if want := "s = 8\nagain 8\ns = 88\nagain 88\ns = 168\nagain 168\ns = 96\nagain 96\n"; out.String() != want {
		t.Errorf("output %q, want %q", out.String(), want)
	}
}

// TestWorkerFailures: a worker killed from outside between runs is seen
// dead and its next run is an abnormal exit, not a hang; a deadline that
// expires mid-run kills it and returns the context's error; a trap ends
// it with a *RunError trap, and so does a header word that puts a slab
// outside the mapping's slabs, as a state error; a mapping shorter than
// the header and the scalars is refused by Start. After each a fresh
// worker of the same artifact runs right.
func TestWorkerFailures(t *testing.T) {
	requireToolchain(t)
	art, c, spec := workerOf(t, counter, nil)
	fresh := func(what string) {
		t.Helper()
		var out bytes.Buffer
		if err := startLaid(t, art, c, spec).Run(context.Background(), &out); err != nil || out.String() != "s = 8\nagain 8\n" {
			t.Fatalf("fresh worker after %s: %q, %v", what, out.String(), err)
		}
	}

	w := startLaid(t, art, c, spec)
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
	fresh("a kill")

	// A's slab is 8 words: at the header, over the scalars, one word past
	// the end, or at an offset that wraps around.
	slabs, words := layout(c, spec)
	for _, at := range []int{0, slabs[0] - 1, words - 7, -1} {
		w := start(t, art, words)
		w.Point(0, at)
		if err := w.Run(context.Background(), nil); !errors.As(err, &re) || !re.Trap || !strings.Contains(re.Stderr, "za state error") {
			t.Fatalf("A's slab at word %d: %v, want a *RunError trap with a state error", at, err)
		}
		w.Close()
		fresh(fmt.Sprintf("a slab at word %d", at))
	}
	if _, err := art.Start(context.Background(), slabs[0]-1); !errors.As(err, &re) || !re.Trap || !strings.Contains(re.Stderr, "za state error") {
		t.Fatalf("a mapping one word short of the scalars: %v, want a *RunError trap with a state error", err)
	}
	fresh("a short mapping")

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
	w = startLaid(t, spin, sc, sspec)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := w.Run(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run past its deadline: %v, want DeadlineExceeded", err)
	}
	w.Close()
	w = startLaid(t, spin, sc, sspec)
	w.State()[sspec.Scalar(sort.SearchStrings(sspec.Scalars, "s"))] = -2.5
	var out bytes.Buffer
	if err := w.Run(context.Background(), &out); err != nil || out.String() != "s -2.5\n" {
		t.Fatalf("fresh worker after a deadline: %q, %v", out.String(), err)
	}

	trap, _, _ := workerOf(t, counter, func(goSrc string) string {
		return strings.Replace(goSrc, "func za_main() {", "func za_main() {\n\tzaTrapSelfTest()", 1) +
			"\nfunc zaTrapSelfTest() {\n\tvar s []float64\n\t_ = s[1]\n}\n"
	})
	w = startLaid(t, trap, c, spec)
	if err := w.Run(context.Background(), nil); !errors.As(err, &re) || !re.Trap || re.ExitCode != gogen.ExitTrap ||
		!strings.Contains(re.Stderr, "za runtime error") {
		t.Fatalf("trapping run: %v, want a *RunError trap", err)
	}
	w.Close()
	if w.Alive() {
		t.Error("a closed worker reads as alive")
	}
}

// TestWorkerExitsWithHost: a worker whose host process dies sees end of
// input and exits, a threaded one (its helper goroutines parked) as
// well as a plain one. A helper process starts a worker and reports its
// pid; the test kills the helper with SIGKILL, which leaves it no
// cleanup to run, and the worker must be gone within a few seconds. A
// program that never closes its lazy contexts leaves no process running
// because of this.
func TestWorkerExitsWithHost(t *testing.T) {
	requireToolchain(t)
	if _, err := proctest.Children(); err != nil {
		t.Skipf("no process table here: %v", err)
	}
	if args, ok := proctest.InHelper(); ok {
		start(t, &backend.Artifact{Bin: args[0]}, 64)
		kids, err := proctest.Children()
		if err != nil || len(kids) != 1 {
			t.Fatalf("children %v, want the worker alone: %v", kids, err)
		}
		fmt.Println(kids[0])
		time.Sleep(time.Hour) // until the test kills this process
	}
	plain, _, _ := workerOf(t, counter, nil)
	threaded, _, _, _ := threadedHeat(t)
	for _, art := range []*backend.Artifact{plain, threaded} {
		helper := proctest.Helper("TestWorkerExitsWithHost", art.Bin)
		var stderr bytes.Buffer
		helper.Stderr = &stderr
		stdout, err := helper.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := helper.Start(); err != nil {
			t.Fatal(err)
		}
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		helper.Process.Kill()
		helper.Wait()
		pid, err := strconv.Atoi(strings.TrimSpace(line))
		if err != nil {
			t.Fatalf("the helper reported %q, not a worker's pid: %v\n%s", line, err, stderr.String())
		}
		for deadline := time.Now().Add(10 * time.Second); proctest.Running(pid); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				if p, err := os.FindProcess(pid); err == nil {
					p.Kill()
				}
				t.Fatalf("worker %d of %s still runs 10 s after its host was killed", pid, art.Bin)
			}
		}
	}
}

// BenchmarkWorkerRun times one run of a resident worker whose kernel is
// eight additions and a sum: the command byte, the reply frame and the
// two pipe wake-ups a native lazy Eval pays beyond its kernel and the
// frame it seeds.
func BenchmarkWorkerRun(b *testing.B) {
	if !backend.Available() {
		b.Skip("no go toolchain on PATH")
	}
	art, c, spec := workerOf(b, counter, nil)
	slabs, words := layout(c, spec)
	w, err := art.Start(context.Background(), words)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	w.Point(0, slabs[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}
