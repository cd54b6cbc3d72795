package gogen_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/programs"
)

// fusedMultiplyAdd matches the fused multiply-add instructions of
// arm64, ppc64le and s390x in go tool objdump's listing.
var fusedMultiplyAdd = regexp.MustCompile(`\s(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB|MADBR|MSDBR|MADB|MSDB|WFMADB|WFMSDB)\s`)

// TestEmittedNoFMA: emitted Go compiles to no fused multiply-add on the
// architectures whose Go compiler fuses x*y + z (gogen's binary converts
// every product so that it may not), so a native program rounds every
// operator as the VM does there too. The emitted program of each
// benchmark and of testdata/heat.za, and heat emitted as a resident
// worker, are cross-built for linux/arm64, ppc64le and s390x and
// disassembled; an instruction of main.go that fuses fails the test.
// Tier-1 emits at c2+f4, -full at every level.
func TestEmittedNoFMA(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	if !backend.Available() {
		t.Skip("no go toolchain on PATH")
	}
	heat, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	progs := []programs.Benchmark{{Name: "heat", Source: string(heat)}}
	progs = append(progs, programs.All()...)
	levels := []core.Level{core.C2F4}
	if matrix.Full() {
		levels = core.AllLevels()
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fma\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var names []string // names[i] is the program in package p<i>
	emit := func(name, src string, lvl core.Level, worker bool) {
		c, err := driver.Compile(src, driver.Options{Level: lvl})
		if err != nil {
			t.Fatalf("%s at %v: %v", name, lvl, err)
		}
		render := gogen.EmitBounds
		if worker {
			render = gogen.EmitWorker
			name += " worker"
		}
		goSrc, err := render(c.LIR, c.Bounds)
		if err != nil {
			t.Fatalf("%s at %v: %v", name, lvl, err)
		}
		pkg := filepath.Join(dir, fmt.Sprintf("p%d", len(names)))
		if err := os.Mkdir(pkg, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkg, "main.go"), []byte(goSrc), 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, fmt.Sprintf("%s at %v", name, lvl))
	}
	for _, lvl := range levels {
		for _, p := range progs {
			emit(p.Name, p.Source, lvl, false)
		}
	}
	emit("heat", progs[0].Source, core.C2F4, true)

	for _, arch := range []string{"arm64", "ppc64le", "s390x"} {
		bin := filepath.Join(dir, "bin-"+arch)
		build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
		build.Dir = dir
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0",
			"GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local", "GOPROXY=off")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("cross-build for %s: %v\n%s", arch, err, out)
		}
		for i, name := range names {
			dump, err := exec.Command("go", "tool", "objdump", "-s", `^main\.`, filepath.Join(bin, fmt.Sprintf("p%d", i))).Output()
			if err != nil {
				t.Fatalf("objdump %s for %s: %v", name, arch, err)
			}
			for sc := bufio.NewScanner(bytes.NewReader(dump)); sc.Scan(); {
				if line := sc.Text(); strings.HasPrefix(strings.TrimSpace(line), "main.go:") && fusedMultiplyAdd.MatchString(line) {
					t.Errorf("%s on %s: fused multiply-add %s", name, arch, strings.Join(strings.Fields(line), " "))
				}
			}
		}
	}
}
