package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/vm"
)

// The expected transcripts are committed: expected/<program>-<n>.txt
// is what the program prints at size n, frozen by -freeze only after
// the baseline VM, the c2+f4 VM and the native binary agreed byte for
// byte. The two-processor interpreter combines reduction partials in
// processor order, which moves the last digits of a floating-point
// sum, so its transcript is frozen separately as <program>-<n>-p2.txt
// after checking it against the sequential one to 1e-9 relative.
//
//go:embed expected/*.txt
var expectedFS embed.FS

//go:embed heat.za
var heatSource string

func expectedName(prog string, n int64, p2 bool) string {
	if p2 {
		return fmt.Sprintf("%s-%d-p2.txt", prog, n)
	}
	return fmt.Sprintf("%s-%d.txt", prog, n)
}

// expected returns the reference transcript for a program at size n;
// with p2 it is the two-processor transcript, which falls back to the
// sequential one where the two were identical when frozen.
func expected(prog string, n int64, p2 bool) (string, error) {
	if p2 {
		if b, err := expectedFS.ReadFile("expected/" + expectedName(prog, n, true)); err == nil {
			return string(b), nil
		}
	}
	b, err := expectedFS.ReadFile("expected/" + expectedName(prog, n, false))
	if err != nil {
		return "", fmt.Errorf("no committed reference for %s at n=%d (run -freeze): %w", prog, n, err)
	}
	return string(b), nil
}

// refSizes lists every (program, size) some workload runs, and whether
// the two-processor interpreter runs it too.
func refSizes() map[string]map[int64]bool {
	out := map[string]map[int64]bool{}
	add := func(prog string, n int64, p2 bool) {
		if out[prog] == nil {
			out[prog] = map[int64]bool{}
		}
		out[prog][n] = out[prog][n] || p2
	}
	for _, b := range programs.All() {
		add(b.Name, b.DefaultSize, true)         // compile
		add(b.Name, interpSize(b, false), true)  // run-interp
		add(b.Name, nativeSize(b, false), false) // run-go
	}
	for _, b := range benchPrograms(true) {
		add(b.Name, interpSize(b, true), true) // every cell workload under -smoke
	}
	for _, t := range serveTemplates {
		if t != "heat" { // heat is checked against the hand kernel
			for _, n := range serveSizes {
				add(t, n, false)
			}
		}
	}
	return out
}

// closeTo reports whether two transcripts have the same words, with
// numeric words equal to a relative tolerance.
func closeTo(a, b string, tol float64) bool {
	fa, fb := strings.Fields(a), strings.Fields(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		x, errx := strconv.ParseFloat(fa[i], 64)
		y, erry := strconv.ParseFloat(fb[i], 64)
		if errx != nil || erry != nil || math.Abs(x-y) > tol*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// freeze regenerates expected/ under dir. It refuses to write a file
// unless every engine agrees on it.
func freeze(dir string) error {
	if !backend.Available() {
		return fmt.Errorf("freeze needs the Go toolchain: the native engine is one of the four that must agree")
	}
	tmp, err := os.MkdirTemp("", "zplbench-freeze")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	st, err := backend.Open(tmp)
	if err != nil {
		return err
	}
	out := filepath.Join(dir, "expected")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for _, b := range programs.All() {
		for n, p2 := range refSizes()[b.Name] {
			cfg := map[string]int64{b.SizeConfig: n}
			var want string
			for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
				c, err := driver.Compile(b.Source, driver.Options{Configs: cfg, Level: lvl})
				if err != nil {
					return fmt.Errorf("%s n=%d %s: %w", b.Name, n, lvl, err)
				}
				var vmOut, goOut bytes.Buffer
				if _, _, err := c.Run(vm.Options{Out: &vmOut}); err != nil {
					return fmt.Errorf("%s n=%d %s on the VM: %w", b.Name, n, lvl, err)
				}
				art, _, err := st.BuildProgramBounds(context.Background(), c.LIR, c.Bounds)
				if err != nil {
					return fmt.Errorf("%s n=%d %s native build: %w", b.Name, n, lvl, err)
				}
				if _, err := art.Run(context.Background(), &goOut); err != nil {
					return fmt.Errorf("%s n=%d %s native run: %w", b.Name, n, lvl, err)
				}
				if want == "" {
					want = vmOut.String()
				}
				if vmOut.String() != want || goOut.String() != want {
					return fmt.Errorf("%s n=%d: engines disagree at %s:\n want %q\n  vm  %q\n  go  %q",
						b.Name, n, lvl, want, vmOut.String(), goOut.String())
				}
			}
			if err := os.WriteFile(filepath.Join(out, expectedName(b.Name, n, false)), []byte(want), 0o644); err != nil {
				return err
			}
			if !p2 {
				continue
			}
			var want2 string
			for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
				co := comm.DefaultOptions(2)
				c, err := driver.Compile(b.Source, driver.Options{Configs: cfg, Level: lvl, Comm: &co})
				if err != nil {
					return fmt.Errorf("%s n=%d %s p=2: %w", b.Name, n, lvl, err)
				}
				var dOut bytes.Buffer
				if _, err := distvm.Run(c.LIR, distvm.Options{Procs: 2, Out: &dOut}); err != nil {
					return fmt.Errorf("%s n=%d %s on distvm: %w", b.Name, n, lvl, err)
				}
				if want2 == "" {
					want2 = dOut.String()
				}
				if dOut.String() != want2 || !closeTo(want2, want, 1e-9) {
					return fmt.Errorf("%s n=%d: distvm disagrees at %s:\n seq %q\n p=2 %q", b.Name, n, lvl, want, dOut.String())
				}
			}
			p2path := filepath.Join(out, expectedName(b.Name, n, true))
			if want2 == want {
				os.Remove(p2path) // identical: the sequential file serves both
			} else if err := os.WriteFile(p2path, []byte(want2), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("froze %s\n", b.Name)
	}
	return nil
}
