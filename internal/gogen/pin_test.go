package gogen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/programs"
)

var update = flag.Bool("update", false, "rewrite testdata/emission_hashes.json from this build's emitter")

// TestEmissionPinned pins what the emitter writes: the SHA-256 of the
// one-shot emission (EmitBounds, what zplrun -backend go builds) and of
// the worker emission (EmitWorker, what the lazy runtime builds) of
// each benchmark at its default size and of testdata/heat.za, at the
// ladder ends, with the prover's verdicts. An emission is the content
// address of its artifact, so a changed hash is a changed binary:
// -update only for a deliberate change to the emitted code. The
// emission depends on whether the host runs the packed kernels, and
// both are pinned on every host: testdata/emission_hashes.json holds
// the emission without them, where no nest runs strips (unchanged since
// before strips existed), and emission_hashes_strips.json the one with
// them. One-shot hashes are checked on Linux only, since the arena's
// host half differs by OS (arena_linux.go, arena_other.go); a worker
// has no arena, and its hashes hold everywhere. At their default sizes
// no nest is large enough to split (absint.Result.Splits); heat@512's
// workers and one-shot programs pin the threaded emission.
func TestEmissionPinned(t *testing.T) {
	for _, pin := range []struct {
		file   string
		packed bool
	}{{"emission_hashes.json", false}, {"emission_hashes_strips.json", true}} {
		was := gogen.SetPackedHost(pin.packed)
		emissions := pinnedEmissions(t)
		gogen.SetPackedHost(was)
		checkPins(t, filepath.Join("testdata", pin.file), emissions)
	}
}

// checkPins holds the hashes of emissions to the pins in path, or with
// -update writes them there.
func checkPins(t *testing.T, path string, emissions map[string]string) {
	t.Helper()
	got := map[string]string{}
	for id, src := range emissions {
		h := sha256.Sum256([]byte(src))
		got[id] = hex.EncodeToString(h[:])
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/gogen -run TestEmissionPinned -update)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d emissions hashed, %d pinned", path, len(got), len(want))
	}
	for id, w := range want {
		if filepath.Base(id) == "one-shot" && runtime.GOOS != "linux" {
			continue
		}
		if got[id] != w {
			t.Errorf("%s: %s: emission changed (%.12s, pinned %.12s)", path, id, got[id], w)
		}
	}
}

// pinnedEmissions returns the emissions TestEmissionPinned pins, by id.
func pinnedEmissions(t *testing.T) map[string]string {
	t.Helper()
	heat, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	progs := append(programs.All(), programs.Benchmark{Name: "heat", Source: string(heat)})
	got := map[string]string{}
	for _, p := range progs {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			id := fmt.Sprintf("%s/%s", p.Name, lvl)
			c, err := driver.Compile(p.Source, driver.Options{Level: lvl})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, pr := range c.LIR.Procs {
				for _, n := range lir.Nests(pr.Body) {
					if c.Bounds.Splits(c.LIR, n) {
						t.Errorf("%s: a worker splits a nest at the default size", id)
					}
				}
			}
			oneShot, err := gogen.EmitBounds(c.LIR, c.Bounds)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			worker, err := gogen.EmitWorker(c.LIR, c.Bounds)
			if err != nil {
				t.Fatalf("%s worker: %v", id, err)
			}
			got[id+"/one-shot"], got[id+"/worker"] = oneShot, worker
		}
	}
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		c, err := driver.Compile(string(heat), driver.Options{Level: lvl, Configs: map[string]int64{"n": 512}})
		if err != nil {
			t.Fatalf("heat@512/%s: %v", lvl, err)
		}
		for mode, emit := range map[string]func(*lir.Program, *absint.Result) (string, error){
			"one-shot": gogen.EmitBounds,
			"worker":   gogen.EmitWorker,
		} {
			id := fmt.Sprintf("heat@512/%s/%s", lvl, mode)
			src, err := emit(c.LIR, c.Bounds)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if !strings.Contains(src, "zaC_run(") {
				t.Errorf("%s: no nest split", id)
			}
			got[id] = src
		}
	}
	return got
}

// TestEmittedImports: every import of every pinned emission, one-shot
// and worker, emitted as on a host with the packed kernels, is in
// gogen.Imports, the set the native backend builds against (its
// importcfg): the standard library and the kernel package. An import outside it would fail every native
// build of that program at run time.
func TestEmittedImports(t *testing.T) {
	defer gogen.SetPackedHost(gogen.SetPackedHost(true))
	allowed := map[string]bool{}
	for _, path := range gogen.Imports {
		allowed[path] = true
	}
	seen := map[string]bool{}
	for id, src := range pinnedEmissions(t) {
		f, err := parser.ParseFile(token.NewFileSet(), "main.go", src, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !allowed[path] {
				t.Errorf("%s imports %q, which is not in gogen.Imports %v", id, path, gogen.Imports)
			}
			seen[path] = true
		}
	}
	// Not vacuous: together the cells import every package of the set.
	if len(seen) != len(gogen.Imports) {
		t.Errorf("the pinned emissions import %d of gogen.Imports' %d packages", len(seen), len(gogen.Imports))
	}
}
