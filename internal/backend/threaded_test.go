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
	"repro/internal/proctest"
	"repro/internal/programs"
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

// threadedWorkerOf compiles p at lvl above the split threshold with the
// prover's verdicts and builds its worker emission.
func threadedWorkerOf(t *testing.T, p programs.Benchmark, lvl core.Level) (*backend.Artifact, *driver.Compilation, *gogen.StateSpec, string) {
	t.Helper()
	c, err := driver.Compile(p.Source, driver.Options{Level: lvl, Configs: map[string]int64{p.SizeConfig: threadedSize(p.Rank)}})
	if err != nil {
		t.Fatal(err)
	}
	goSrc, err := gogen.EmitWorker(c.LIR, c.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	art, err := store().Build(context.Background(), goSrc)
	if err != nil {
		t.Fatal(err)
	}
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

// TestThreadedWorkerRaceClean builds heat's threaded worker with the
// race detector and runs it three times at GOMAXPROCS 2: the channels
// that hand chunks to the helpers must order every access they make. A
// report halts the worker, and the run fails.
func TestThreadedWorkerRaceClean(t *testing.T) {
	requireToolchain(t)
	tool, _ := backend.Toolchain()
	if out, err := exec.Command(tool, "env", "CGO_ENABLED").Output(); err != nil || strings.TrimSpace(string(out)) != "1" {
		t.Skip("no cgo: no race detector")
	}
	_, c, spec, goSrc := threadedHeat(t)
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
	t.Setenv("GOMAXPROCS", "2")
	t.Setenv("GORACE", "halt_on_error=1")
	w := startLaid(t, &backend.Artifact{Bin: filepath.Join(dir, "prog")}, c, spec)
	seedConfigs(w, c, spec)
	for r := range 3 {
		if err := w.Run(context.Background(), nil); err != nil {
			t.Fatalf("run %d under the race detector: %v", r+1, err)
		}
	}
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
