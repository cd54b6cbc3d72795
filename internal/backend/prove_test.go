package backend_test

// Differential soundness of proof-carrying check elimination on the
// native backend: the unchecked emission (bounds checks dropped at
// ProvenSafe sites, trap scaffold elided when everything is proven)
// must produce byte-identical output to both the checked native build
// and the VM — and a seeded evidence fault must surface as observable
// divergence, proving the bit-identity assertion has teeth.

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/programs"
	"repro/internal/vm"
)

// nativeBoundsOutput builds and runs the proof-carrying emission.
func nativeBoundsOutput(t *testing.T, c *driver.Compilation) string {
	t.Helper()
	art, _, err := store.BuildProgramBounds(context.Background(), c.LIR, c.Bounds)
	if err != nil {
		t.Fatalf("build with bounds: %v", err)
	}
	var out bytes.Buffer
	if _, err := art.Run(context.Background(), &out); err != nil {
		t.Fatalf("run with bounds: %v", err)
	}
	return out.String()
}

// TestProveBitIdentical: checked VM, unchecked VM, checked native, and
// unchecked native all agree byte-for-byte, and the unchecked emission
// really is unchecked (raw pointer accesses, no recover scaffold).
func TestProveBitIdentical(t *testing.T) {
	requireToolchain(t)
	if testing.Short() {
		t.Skip("invokes the go toolchain repeatedly")
	}

	type cse struct {
		name string
		src  string
		cfgs map[string]int64
	}
	var cases []cse
	if data, err := os.ReadFile("../../testdata/quickstart.za"); err == nil {
		cases = append(cases, cse{name: "quickstart", src: string(data)})
	}
	for _, b := range programs.All() {
		if b.Name == "tomcatv" || b.Name == "ep" {
			cases = append(cases, cse{name: b.Name, src: b.Source, cfgs: benchConfigs(b)})
		}
	}
	for _, cs := range cases {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			cs, lvl := cs, lvl
			t.Run(cs.name+"/"+lvl.String(), func(t *testing.T) {
				t.Parallel()
				c, err := driver.Compile(cs.src, driver.Options{Level: lvl, Configs: cs.cfgs, Check: true})
				if err != nil {
					t.Fatal(err)
				}
				if c.Bounds == nil || !c.Bounds.AllProven() {
					t.Fatalf("expected a fully proven program, got %+v", c.Bounds)
				}

				vmChecked := vmOutput(t, c)
				var unchk bytes.Buffer
				if _, _, err := c.Run(vm.Options{Out: &unchk}); err != nil {
					t.Fatalf("vm unchecked: %v", err)
				}
				if unchk.String() != vmChecked {
					t.Errorf("VM unchecked diverges from checked\nchecked   %q\nunchecked %q", vmChecked, unchk.String())
				}

				nativeChecked := nativeOutput(t, c)
				nativeUnchecked := nativeBoundsOutput(t, c)
				if nativeChecked != vmChecked {
					t.Errorf("native checked diverges from VM\nnative %q\nvm     %q", nativeChecked, vmChecked)
				}
				if nativeUnchecked != vmChecked {
					t.Errorf("native unchecked diverges from VM\nnative %q\nvm     %q", nativeUnchecked, vmChecked)
				}

				goSrc, err := gogen.EmitBounds(c.LIR, c.Bounds)
				if err != nil {
					t.Fatal(err)
				}
				if len(c.Bounds.Sites) > 0 && !strings.Contains(goSrc, "unsafe.Add") {
					t.Error("proven emission contains no unchecked access")
				}
				if strings.Contains(goSrc, "recover()") {
					t.Error("fully proven emission still carries the recover scaffold")
				}
				if strings.Contains(goSrc, "[") && strings.Contains(goSrc, "za_wrap") {
					t.Error("unfaulted emission references the fault-wrap helper")
				}
			})
		}
	}
}

// TestProveFaultCaughtNative: an injected one-element evidence fault
// must make the proof-carrying native binary produce output that
// diverges from the sound build, for at least one fault site.
func TestProveFaultCaughtNative(t *testing.T) {
	requireToolchain(t)
	src, err := os.ReadFile("../../testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	sound, err := driver.Compile(string(src), driver.Options{Level: core.C2F4})
	if err != nil {
		t.Fatal(err)
	}
	want := nativeBoundsOutput(t, sound)
	total := sound.Bounds.NumProven
	if total == 0 {
		t.Skip("program has no proven sites to fault")
	}
	for site := 1; site <= total; site++ {
		faulted, err := driver.Compile(string(src), driver.Options{Level: core.C2F4, ProveFault: site})
		if err != nil {
			t.Fatal(err)
		}
		goSrc, err := gogen.EmitBounds(faulted.LIR, faulted.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(goSrc, "za_wrap") {
			t.Fatalf("faulted emission (site %d) carries no displaced access", site)
		}
		art, err := store.Build(context.Background(), goSrc)
		if err != nil {
			t.Fatalf("faulted source must still build: %v", err)
		}
		var out bytes.Buffer
		if _, err := art.Run(context.Background(), &out); err != nil {
			// A trap is also a catch.
			return
		}
		if out.String() != want {
			return // divergence observed: the fault is caught
		}
	}
	t.Errorf("no injected fault across %d sites changed the native output", total)
}

// TestEmittedCheckptrClean runs the proof-carrying emission under the
// toolchain's pointer checker: built with -d=checkptr, every conversion
// of an unsafe.Pointer to *float64 is looked up in the heap (a pointer
// into a span's unused tail or a freed span, or one whose eight bytes
// straddle two objects, is a fatal error), and the run must still print
// the VM's transcript. It is the executable statement of "no derived
// pointer leaves its allocation" — the reason a row offset is an
// integer added to the array's base in one step, never a row pointer
// that an outer loop parks before the first element or beyond the last.
func TestEmittedCheckptrClean(t *testing.T) {
	requireToolchain(t)
	if testing.Short() {
		t.Skip("invokes the go toolchain repeatedly")
	}
	tool, _ := backend.Toolchain()
	file := func(name string) string {
		data, err := os.ReadFile("../../testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	tomcatv, _ := programs.ByName("tomcatv")
	for _, cs := range []struct {
		name, src string
		cfgs      map[string]int64
	}{
		{"heat", file("heat.za"), nil},
		{"tomcatv", tomcatv.Source, benchConfigs(tomcatv)},
		{"rowsums", file("rowsums.za"), nil},
	} {
		t.Run(cs.name, func(t *testing.T) {
			t.Parallel()
			c, err := driver.Compile(cs.src, driver.Options{Level: core.C2F4, Configs: cs.cfgs})
			if err != nil {
				t.Fatal(err)
			}
			goSrc, err := gogen.EmitBounds(c.LIR, c.Bounds)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(goSrc, "unsafe.Add") {
				t.Fatal("emission has no unchecked access; the case is vacuous")
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(goSrc), 0o644); err != nil {
				t.Fatal(err)
			}
			build := exec.Command(tool, "build", "-gcflags=all=-d=checkptr", "-o", "prog", "main.go")
			build.Dir = dir
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build -d=checkptr: %v\n%s", err, out)
			}
			var stdout, stderr bytes.Buffer
			run := exec.Command(filepath.Join(dir, "prog"))
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("run under checkptr: %v\n%s", err, stderr.String())
			}
			if want := vmOutput(t, c); stdout.String() != want {
				t.Errorf("output under checkptr %q, VM %q", stdout.String(), want)
			}
		})
	}
}
