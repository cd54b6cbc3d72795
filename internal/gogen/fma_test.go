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

// fmaArchs are the architectures whose Go compiler fuses x*y + z.
var fmaArchs = []string{"arm64", "ppc64le", "s390x"}

// TestEmittedNoFMA: emitted Go compiles to no fused multiply-add on the
// architectures whose Go compiler fuses x*y + z (gogen's binary converts
// every product so that it may not), so a native program rounds every
// operator as the VM does there too. The emitted program of each
// benchmark and of testdata/heat.za, and heat emitted as a resident
// worker, are cross-built for linux/arm64, ppc64le and s390x and
// disassembled; an instruction of main.go that fuses fails the test
// (main). Tier-1 emits at c2+f4, -full at every level. The kernel
// package a program's strips call, written out as the native back end
// writes it (backend.WriteProgramModule), is cross-built and
// disassembled the same way (kernel).
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
	t.Run("main", func(t *testing.T) {
		progs := []programs.Benchmark{{Name: "heat", Source: string(heat)}}
		progs = append(progs, programs.All()...)
		levels := []core.Level{core.C2F4}
		if matrix.Full() {
			levels = core.AllLevels()
		}
		m := newCrossModule(t)
		for _, lvl := range levels {
			for _, p := range progs {
				m.emit(p.Name, p.Source, lvl, false)
			}
		}
		m.emit("heat", progs[0].Source, core.C2F4, true)
		m.check(`^main\.`, func(line string) bool { return strings.HasPrefix(line, "main.go:") })
	})
	t.Run("kernel", func(t *testing.T) {
		m := newCrossModule(t)
		ep := programs.All()[0]
		goSrc := m.emit(ep.Name, ep.Source, core.C2F4, false)
		if !strings.Contains(goSrc, `"`+gogen.KernelPath+`"`) {
			t.Skip("ep runs no strips on this host: no kernel package to check")
		}
		m.check(`^`+regexp.QuoteMeta(gogen.KernelPath)+`\.`, func(string) bool { return true })
	})
}

// crossModule is a module of emitted programs, package p<i> holding
// names[i], built for each of fmaArchs.
type crossModule struct {
	t     *testing.T
	dir   string
	names []string
}

func newCrossModule(t *testing.T) *crossModule {
	dir := t.TempDir()
	if err := backend.WriteProgramModule(dir); err != nil {
		t.Fatal(err)
	}
	return &crossModule{t: t, dir: dir}
}

// emit compiles src at lvl, adds its emission as the next package and
// returns it.
func (m *crossModule) emit(name, src string, lvl core.Level, worker bool) string {
	t := m.t
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
	pkg := filepath.Join(m.dir, fmt.Sprintf("p%d", len(m.names)))
	if err := os.Mkdir(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, "main.go"), []byte(goSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	m.names = append(m.names, fmt.Sprintf("%s at %v", name, lvl))
	return goSrc
}

// check cross-builds the module for each of fmaArchs and fails on a
// fused multiply-add among the instructions of the functions matching
// sym that keep accepts (the listing line, its leading space trimmed).
// A listing with no such function is a vacuous check and fails too.
func (m *crossModule) check(sym string, keep func(line string) bool) {
	t := m.t
	for _, arch := range fmaArchs {
		bin := filepath.Join(m.dir, "bin-"+arch)
		build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
		build.Dir = m.dir
		build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0",
			"GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local", "GOPROXY=off")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("cross-build for %s: %v\n%s", arch, err, out)
		}
		for i, name := range m.names {
			dump, err := exec.Command("go", "tool", "objdump", "-s", sym, filepath.Join(bin, fmt.Sprintf("p%d", i))).Output()
			if err != nil {
				t.Fatalf("objdump %s for %s: %v", name, arch, err)
			}
			if !bytes.Contains(dump, []byte("TEXT ")) {
				t.Fatalf("%s on %s: no function matches %s", name, arch, sym)
			}
			for sc := bufio.NewScanner(bytes.NewReader(dump)); sc.Scan(); {
				if line := strings.TrimSpace(sc.Text()); keep(line) && fusedMultiplyAdd.MatchString(line) {
					t.Errorf("%s on %s: fused multiply-add %s", name, arch, strings.Join(strings.Fields(line), " "))
				}
			}
		}
	}
}
