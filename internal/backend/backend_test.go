package backend_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/gogen"
	"repro/internal/programs"
	"repro/internal/vm"
)

func requireToolchain(t *testing.T) {
	t.Helper()
	if !backend.Available() {
		t.Skip("no go toolchain on PATH")
	}
}

// store is shared across this package's tests so identical emissions
// (the same program reached from several tests) are build hits.
var store = func() *backend.Store {
	dir, err := os.MkdirTemp("", "zpl-backend-test")
	if err != nil {
		panic(err)
	}
	s, err := backend.Open(dir)
	if err != nil {
		panic(err)
	}
	return s
}()

func vmOutput(t *testing.T, c *driver.Compilation) string {
	t.Helper()
	var out bytes.Buffer
	if _, _, err := vm.Run(c.LIR, vm.Options{Out: &out}); err != nil {
		t.Fatalf("vm: %v", err)
	}
	return out.String()
}

func nativeOutput(t *testing.T, c *driver.Compilation) string {
	t.Helper()
	art, _, err := store.BuildProgram(context.Background(), c.LIR)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var out bytes.Buffer
	if _, err := art.Run(context.Background(), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// nativeMatchesVM fails t unless the checked native build of c prints
// the VM's transcript.
func nativeMatchesVM(t *testing.T, c *driver.Compilation) {
	t.Helper()
	want := vmOutput(t, c)
	if got := nativeOutput(t, c); got != want {
		t.Errorf("native output diverges from VM\nnative: %q\nvm:     %q", got, want)
	}
}

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

// bitIdenticalLevels is the short differential ladder; -full (make
// backend-diff) runs all nine levels.
func bitIdenticalLevels() []core.Level {
	if *full {
		return core.AllLevels()
	}
	return []core.Level{core.Baseline, core.C2F3}
}

// benchConfigs returns a small problem size for a benchmark so the
// differential suite stays fast.
func benchConfigs(b programs.Benchmark) map[string]int64 {
	n := int64(20)
	if b.Rank == 1 {
		n = 512
	}
	return map[string]int64{b.SizeConfig: n}
}

// TestBackendBitIdentical is the differential suite: every testdata
// program across the ladder, plus every built-in benchmark under its
// golden tuned plan and, with -full, at each of the nine levels (54
// cells), must produce byte-identical output on the native backend and
// the VM.
func TestBackendBitIdentical(t *testing.T) {
	requireToolchain(t)
	if testing.Short() {
		t.Skip("invokes the go toolchain repeatedly")
	}

	files, err := filepath.Glob("../../testdata/*.za")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range bitIdenticalLevels() {
			t.Run(filepath.Base(f)+"/"+lvl.String(), func(t *testing.T) {
				t.Parallel()
				c, err := driver.Compile(string(data), driver.Options{Level: lvl})
				if err != nil {
					t.Fatal(err)
				}
				nativeMatchesVM(t, c)
			})
		}
	}

	// The golden tuned plans: the autotuner's committed winners must
	// survive native code generation too.
	for _, b := range programs.All() {
		planFile := filepath.Join("../../testdata/plans", b.Name+"-c2+f4s.json")
		data, err := os.ReadFile(planFile)
		if err != nil {
			t.Fatalf("golden plan: %v", err)
		}
		spec, err := core.ParseSpec(data)
		if err != nil {
			t.Fatalf("golden plan %s: %v", planFile, err)
		}
		t.Run("plan/"+b.Name, func(t *testing.T) {
			t.Parallel()
			c, err := driver.Compile(b.Source, driver.Options{Plan: spec, Configs: benchConfigs(b)})
			if err != nil {
				t.Fatal(err)
			}
			nativeMatchesVM(t, c)
		})
		if !*full {
			continue
		}
		for _, lvl := range core.AllLevels() {
			t.Run(b.Name+"/"+lvl.String(), func(t *testing.T) {
				t.Parallel()
				c, err := driver.Compile(b.Source, driver.Options{Level: lvl, Configs: benchConfigs(b)})
				if err != nil {
					t.Fatal(err)
				}
				nativeMatchesVM(t, c)
			})
		}
	}
}

// TestSeedFaultCaught is the -checkfault-style self-test: a seeded
// miscompile must make the differential harness report divergence —
// proving the bit-identity assertion has teeth.
func TestSeedFaultCaught(t *testing.T) {
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
	mutated, ok := backend.SeedFault(goSrc)
	if !ok {
		t.Fatal("program offers no fault site")
	}
	if mutated == goSrc {
		t.Fatal("SeedFault returned the source unchanged")
	}
	art, err := store.Build(context.Background(), mutated)
	if err != nil {
		t.Fatalf("seeded source must still build: %v", err)
	}
	var out bytes.Buffer
	if _, err := art.Run(context.Background(), &out); err != nil {
		t.Fatalf("seeded binary must still run: %v", err)
	}
	if want := vmOutput(t, c); out.String() == want {
		t.Errorf("seeded miscompile produced VM-identical output %q — the harness would miss it", want)
	}
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
