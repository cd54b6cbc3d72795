package backend_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/absint"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/proctest"
	"repro/internal/programs"
	"repro/internal/vm"
)

// threadedPrograms are the six benchmarks and heat, run at
// threadedSize.
func threadedPrograms(t *testing.T) []programs.Benchmark {
	t.Helper()
	heat, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	return append(programs.All(), programs.Benchmark{Name: "heat", Source: string(heat), SizeConfig: "n", Rank: 2})
}

// threadedSize is the size at which a one-statement nest over a
// program's main region, or over its interior, does absint.SplitWork
// element-statements, so that its worker splits nests across
// goroutines.
func threadedSize(rank int) int64 {
	if rank == 1 {
		return absint.SplitWork + 2
	}
	return int64(math.Ceil(math.Sqrt(absint.SplitWork))) + 2
}

// threadedOf compiles p at lvl above the split threshold with the
// prover's verdicts and builds the emission emit makes of it: the
// worker (gogen.EmitWorker) or the one-shot program (gogen.EmitBounds).
func threadedOf(t *testing.T, p programs.Benchmark, lvl core.Level, emit func(*lir.Program, *absint.Result) (string, error)) (*backend.Artifact, *driver.Compilation, string) {
	t.Helper()
	c, err := driver.Compile(p.Source, driver.Options{Level: lvl, Configs: map[string]int64{p.SizeConfig: threadedSize(p.Rank)}})
	if err != nil {
		t.Fatal(err)
	}
	goSrc, err := emit(c.LIR, c.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	art, err := store().Build(context.Background(), goSrc)
	if err != nil {
		t.Fatal(err)
	}
	return art, c, goSrc
}

// threadedWorkerOf is threadedOf's worker, with the state it shares.
func threadedWorkerOf(t *testing.T, p programs.Benchmark, lvl core.Level) (*backend.Artifact, *driver.Compilation, *gogen.StateSpec, string) {
	t.Helper()
	art, c, goSrc := threadedOf(t, p, lvl, gogen.EmitWorker)
	return art, c, gogen.StateOf(c.LIR), goSrc
}

// threadedHeat is heat's threaded worker at c2+f4.
func threadedHeat(t *testing.T) (*backend.Artifact, *driver.Compilation, *gogen.StateSpec, string) {
	t.Helper()
	ps := threadedPrograms(t)
	art, c, spec, goSrc := threadedWorkerOf(t, ps[len(ps)-1], core.C2F4)
	if !strings.Contains(goSrc, "zaC_run(") {
		t.Fatal("heat's worker splits no nest")
	}
	return art, c, spec, goSrc
}

// vmTranscript is what c prints on the VM.
func vmTranscript(t *testing.T, c *driver.Compilation) string {
	t.Helper()
	var out bytes.Buffer
	if _, _, err := c.Run(vm.Options{Out: &out}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// seedConfigs writes each config scalar's value into w's state: a
// worker takes every scalar from its mapping, config constants too.
func seedConfigs(w *backend.Worker, c *driver.Compilation, spec *gogen.StateSpec) {
	for i, name := range spec.Scalars {
		if s := c.LIR.Source.Scalars[name]; s.Config {
			w.State()[spec.Scalar(i)] = s.Init
		}
	}
}

// runThreaded starts art with GOMAXPROCS=procs over layout(c, spec),
// runs it twice, and returns every word of its mapping, as bits, and
// each run's reply.
func runThreaded(t *testing.T, art *backend.Artifact, c *driver.Compilation, spec *gogen.StateSpec, procs string) ([]uint64, []string) {
	t.Helper()
	t.Setenv("GOMAXPROCS", procs)
	w := startLaid(t, art, c, spec)
	defer w.Close()
	seedConfigs(w, c, spec)
	var replies []string
	for range 2 {
		var out bytes.Buffer
		if err := w.Run(context.Background(), &out); err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v", procs, err)
		}
		replies = append(replies, out.String())
	}
	bits := make([]uint64, len(w.State()))
	for i, v := range w.State() {
		bits[i] = math.Float64bits(v)
	}
	return bits, replies
}

// TestThreadedMatchesOneProc: a worker whose nests split across
// goroutines leaves the same mapping — every slab, every scalar word —
// and replies the same frames, byte for byte, at GOMAXPROCS 2 as at
// GOMAXPROCS 1, where its one chunk is the whole nest: for the six
// benchmarks and heat above the split threshold, at the ladder ends.
// The second run starts from the state the first left, with the
// helpers parked in between.
func TestThreadedMatchesOneProc(t *testing.T) {
	requireToolchain(t)
	for _, p := range threadedPrograms(t) {
		threaded := false
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			art, c, spec, goSrc := threadedWorkerOf(t, p, lvl)
			threaded = threaded || strings.Contains(goSrc, "zaC_run(")
			one, oneOut := runThreaded(t, art, c, spec, "1")
			two, twoOut := runThreaded(t, art, c, spec, "2")
			for i := range one {
				if one[i] != two[i] {
					t.Errorf("%s at %v: word %d of the mapping is %#x at GOMAXPROCS 2, %#x at 1", p.Name, lvl, i, two[i], one[i])
					break
				}
			}
			for r := range oneOut {
				if oneOut[r] != twoOut[r] {
					t.Errorf("%s at %v run %d: reply %q at GOMAXPROCS 2, %q at 1", p.Name, lvl, r+1, twoOut[r], oneOut[r])
				}
			}
		}
		if !threaded {
			t.Errorf("%s: the worker splits no nest at either level", p.Name)
		}
	}
}

// TestThreadedOneShotMatchesOneProc: a one-shot program splits the
// nests a worker splits, and prints the same bytes at GOMAXPROCS 2 as
// at GOMAXPROCS 1, where each split nest is one chunk on the main
// goroutine, and as the VM: for the six benchmarks and heat above the
// split threshold, at the ladder ends.
func TestThreadedOneShotMatchesOneProc(t *testing.T) {
	requireToolchain(t)
	for _, p := range threadedPrograms(t) {
		threaded := false
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			art, c, goSrc := threadedOf(t, p, lvl, gogen.EmitBounds)
			threaded = threaded || strings.Contains(goSrc, "zaC_run(")
			want := vmTranscript(t, c)
			for _, procs := range []string{"1", "2"} {
				t.Setenv("GOMAXPROCS", procs)
				var out bytes.Buffer
				if _, err := art.Run(context.Background(), &out); err != nil {
					t.Fatalf("%s at %v, GOMAXPROCS=%s: %v", p.Name, lvl, procs, err)
				}
				if out.String() != want {
					t.Errorf("%s at %v: GOMAXPROCS=%s prints %q, the VM %q", p.Name, lvl, procs, out.String(), want)
				}
			}
		}
		if !threaded {
			t.Errorf("%s: the one-shot program splits no nest at either level", p.Name)
		}
	}
}

// TestThreadedWorkerRaceClean builds heat's threaded worker and its
// threaded one-shot program with the race detector and runs the worker
// three times and the program once at GOMAXPROCS 2: the channels that
// hand chunks to the helpers must order every access they make. A
// report halts the process, and the run fails.
func TestThreadedWorkerRaceClean(t *testing.T) {
	requireToolchain(t)
	tool, _ := backend.Toolchain()
	if out, err := exec.Command(tool, "env", "CGO_ENABLED").Output(); err != nil || strings.TrimSpace(string(out)) != "1" {
		t.Skip("no cgo: no race detector")
	}
	t.Setenv("GOMAXPROCS", "2")
	t.Setenv("GORACE", "halt_on_error=1")
	_, c, spec, goSrc := threadedHeat(t)
	w := startLaid(t, raceBuild(t, tool, goSrc), c, spec)
	seedConfigs(w, c, spec)
	for r := range 3 {
		if err := w.Run(context.Background(), nil); err != nil {
			t.Fatalf("run %d under the race detector: %v", r+1, err)
		}
	}

	ps := threadedPrograms(t)
	_, c, goSrc = threadedOf(t, ps[len(ps)-1], core.C2F4, gogen.EmitBounds)
	if !strings.Contains(goSrc, "zaC_run(") {
		t.Fatal("heat's one-shot program splits no nest")
	}
	var out bytes.Buffer
	if _, err := raceBuild(t, tool, goSrc).Run(context.Background(), &out); err != nil {
		t.Fatalf("the one-shot program under the race detector: %v", err)
	}
	if want := vmTranscript(t, c); out.String() != want {
		t.Errorf("the one-shot program under the race detector prints %q, the VM %q", out.String(), want)
	}
}

// raceBuild builds one emitted source with the race detector.
func raceBuild(t *testing.T, tool, goSrc string) *backend.Artifact {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(goSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := backend.WriteProgramModule(dir); err != nil {
		t.Fatal(err)
	}
	build := exec.Command(tool, "build", "-race", "-o", "prog", "main.go")
	build.Dir = dir
	build.Env = append(os.Environ(), "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return &backend.Artifact{Bin: filepath.Join(dir, "prog")}
}

// TestThreadedWorkerIdle: between runs a threaded worker's helpers are
// parked on their channels, not spinning, so a worker left idle for
// half a second after a run uses at most two clock ticks of CPU.
func TestThreadedWorkerIdle(t *testing.T) {
	requireToolchain(t)
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/<pid>/stat")
	}
	art, c, spec, _ := threadedHeat(t)
	t.Setenv("GOMAXPROCS", "2")
	w := startLaid(t, art, c, spec)
	seedConfigs(w, c, spec)
	if err := w.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	kids, err := proctest.Children()
	if err != nil || len(kids) != 1 {
		t.Fatalf("children %v, want the worker alone: %v", kids, err)
	}
	before, err := proctest.CPUTicks(kids[0])
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	after, err := proctest.CPUTicks(kids[0])
	if err != nil {
		t.Fatal(err)
	}
	if after-before > 2 {
		t.Errorf("an idle threaded worker used %d clock ticks of CPU in 500 ms, want at most 2", after-before)
	}
}
