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
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/gogen"
)

// TestProveBitIdentical: every site is proven, the checked and the
// proof-carrying native builds print the VM's bytes (the matrix row),
// and the proof-carrying emission really is unchecked (raw pointer
// accesses, no recover scaffold).
func TestProveBitIdentical(t *testing.T) {
	requireToolchain(t)
	if testing.Short() {
		t.Skip("invokes the go toolchain repeatedly")
	}
	data, err := os.ReadFile("../../testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	cases := []matrix.Program{{Name: "quickstart", Src: string(data)}}
	for _, p := range matrix.Benchmarks() {
		if p.Name == "tomcatv" || p.Name == "ep" {
			cases = append(cases, p)
		}
	}
	for _, p := range cases {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			t.Run(p.Name+"/"+lvl.String(), func(t *testing.T) {
				t.Parallel()
				c := p.At(lvl, matrix.Go|matrix.GoProved)
				c.Proven = true
				matrix.Check(t, c)

				comp, err := driver.Compile(p.Src, c.Opt)
				if err != nil {
					t.Fatal(err)
				}
				goSrc, err := gogen.EmitBounds(comp.LIR, comp.Bounds)
				if err != nil {
					t.Fatal(err)
				}
				if len(comp.Bounds.Sites) > 0 && !strings.Contains(goSrc, "unsafe.Add") {
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
	want := matrix.Check(t, matrix.Program{Name: "quickstart", Src: string(src)}.At(core.C2F4, matrix.GoProved))
	sound, err := driver.Compile(string(src), driver.Options{Level: core.C2F4})
	if err != nil {
		t.Fatal(err)
	}
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
	var cases []matrix.Program
	for _, p := range append(matrix.Testdata(t), matrix.Benchmarks()...) {
		if name := strings.TrimSuffix(p.Name, ".za"); name == "heat" || name == "tomcatv" || name == "rowsums" {
			p.Name = name
			cases = append(cases, p)
		}
	}
	for _, cs := range cases {
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			want := matrix.Check(t, cs.At(core.C2F4, 0))
			c, err := driver.Compile(cs.Src, driver.Options{Level: core.C2F4, Configs: cs.Configs})
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
			if stdout.String() != want {
				t.Errorf("output under checkptr %q, VM %q", stdout.String(), want)
			}
		})
	}
}
