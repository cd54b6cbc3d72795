package backend_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
)

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

// TestStateProtocolRoundTrip: a state-protocol artifact must dump its
// final array/scalar state to the StateOutEnv file in spec order, and
// a second run seeded from that file via StateInEnv must continue from
// it — the mechanism that lets the lazy runtime reuse one cached
// binary across the timesteps of an iterative solver.
func TestStateProtocolRoundTrip(t *testing.T) {
	requireToolchain(t)
	const src = `
program staterr;
config n : integer = 8;
region R = [1..n];
var A : [R] double;
var s : double;
proc main()
begin
  [R] A := A + 1;
  s := +<< [R] A;
  writeln("s =", s);
end;
`
	c, err := driver.Compile(src, driver.Options{Level: core.C2F3})
	if err != nil {
		t.Fatal(err)
	}
	var arr string
	for n, a := range c.LIR.Source.Arrays {
		if !a.Contracted && !a.Temp {
			arr = n
		}
	}
	var sc string
	for n, si := range c.LIR.Source.Scalars {
		if !si.Config && strings.HasSuffix(n, "s") {
			sc = n
		}
	}
	if arr == "" || sc == "" {
		t.Fatalf("program shape changed: arr=%q sc=%q", arr, sc)
	}
	spec := &gogen.StateSpec{Arrays: []string{arr}, Scalars: []string{sc}}
	goSrc, err := gogen.EmitState(c.LIR, c.Bounds, spec)
	if err != nil {
		t.Fatal(err)
	}
	art, err := store.Build(context.Background(), goSrc)
	if err != nil {
		t.Fatal(err)
	}

	size := c.LIR.Source.Arrays[arr].Alloc.Size()
	wantBytes := 8 * (size + 1)
	dir := t.TempDir()
	s1 := filepath.Join(dir, "s1.state")
	s2 := filepath.Join(dir, "s2.state")

	// First run: arrays start zeroed, A becomes all ones, s = 8.
	var out bytes.Buffer
	_, err = art.RunEnv(context.Background(), &out, []string{gogen.StateOutEnv + "=" + s1})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "s = 8\n" {
		t.Fatalf("first run output %q, want \"s = 8\\n\"", got)
	}
	data, err := os.ReadFile(s1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != wantBytes {
		t.Fatalf("state file is %d bytes, want %d", len(data), wantBytes)
	}
	at := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	for i := 0; i < size; i++ {
		if at(i) != 1 {
			t.Fatalf("A[%d] in state = %g, want 1", i, at(i))
		}
	}
	if at(size) != 8 {
		t.Fatalf("s in state = %g, want 8", at(size))
	}

	// Second run seeded from the first: A goes 1 -> 2, s = 16.
	out.Reset()
	_, err = art.RunEnv(context.Background(), &out, []string{
		gogen.StateInEnv + "=" + s1, gogen.StateOutEnv + "=" + s2})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "s = 16\n" {
		t.Fatalf("seeded run output %q, want \"s = 16\\n\"", got)
	}

	// A truncated state file must be a trap-classified state error, and
	// must not leave a (misleading) output state file behind.
	if err := os.WriteFile(s1, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	bad := filepath.Join(dir, "bad.state")
	_, err = art.RunEnv(context.Background(), &out, []string{
		gogen.StateInEnv + "=" + s1, gogen.StateOutEnv + "=" + bad})
	var re *backend.RunError
	if !errors.As(err, &re) || !re.Trap {
		t.Fatalf("truncated state: error %v, want *RunError trap", err)
	}
	if !strings.Contains(re.Stderr, "za state error") {
		t.Errorf("stderr missing state error: %q", re.Stderr)
	}
	if _, err := os.Stat(bad); err == nil {
		t.Error("faulted run left an output state file")
	}
}
