package backend

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gogen"
)

// TestImportcfgHeals: a kept importcfg that names package files the
// build cache no longer has — all of them, or the kernel package's alone
// — is listed again, once, and the build goes on; a build that fails
// again after that is a *BuildError.
func TestImportcfgHeals(t *testing.T) {
	tool, ok := Toolchain()
	if !ok {
		t.Skip("no go toolchain on PATH")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	gone := filepath.Join(t.TempDir(), "trimmed")
	poison := func() string {
		t.Helper()
		cfg, err := importcfg(ctx, tool, s.Dir(), "")
		if err != nil {
			t.Fatal(err)
		}
		goTool.cfgMu.Lock()
		defer goTool.cfgMu.Unlock()
		goTool.importcfg = strings.ReplaceAll(cfg, "=", "="+gone)
		return goTool.importcfg
	}
	kept := func() string {
		goTool.cfgMu.Lock()
		defer goTool.cfgMu.Unlock()
		return goTool.importcfg
	}

	poisoned := poison()
	art, err := s.Build(ctx, "package main\n\nimport \"fmt\"\n\nfunc main() { fmt.Print(\"healed\") }\n")
	if err != nil {
		t.Fatalf("build over a trimmed build cache: %v", err)
	}
	var out bytes.Buffer
	if _, err := art.Run(ctx, &out); err != nil || out.String() != "healed" {
		t.Fatalf("healed build runs: %q, %v", out.String(), err)
	}
	if cfg := kept(); cfg == poisoned || strings.Contains(cfg, gone) {
		t.Errorf("the importcfg was not listed again:\n%s", cfg)
	}

	// The kernel package's file alone gone: a program that imports it
	// heals the same way, its package built again from the source the
	// store holds.
	cfg, err := importcfg(ctx, tool, s.Dir(), "")
	if err != nil {
		t.Fatal(err)
	}
	line := "packagefile " + gogen.KernelPath + "="
	if !strings.Contains(cfg, line) {
		t.Fatalf("the importcfg names no kernel package:\n%s", cfg)
	}
	goTool.cfgMu.Lock()
	goTool.importcfg = strings.Replace(cfg, line, line+gone, 1)
	poisoned = goTool.importcfg
	goTool.cfgMu.Unlock()
	art, err = s.Build(ctx, "package main\n\nimport (\n\t\"fmt\"\n\t\""+gogen.KernelPath+"\"\n)\n\nfunc main() { fmt.Print(kernel.Width) }\n")
	if err != nil {
		t.Fatalf("build over a trimmed kernel package: %v", err)
	}
	out.Reset()
	if _, err := art.Run(ctx, &out); err != nil || out.String() != "128" {
		t.Fatalf("healed kernel build runs: %q, %v", out.String(), err)
	}
	if cfg := kept(); cfg == poisoned || strings.Contains(cfg, gone) {
		t.Errorf("the importcfg was not listed again:\n%s", cfg)
	}

	poisoned = poison()
	_, err = s.Build(ctx, "package main\n\nfunc main() { undefinedIdentifier() }\n")
	var be *BuildError
	if !errors.As(err, &be) || be.Step != "compile" || !strings.Contains(be.Diagnostics, "undefinedIdentifier") {
		t.Fatalf("broken source over a trimmed build cache: %v, want a compile *BuildError", err)
	}
	if kept() == poisoned {
		t.Error("the importcfg was not listed again before the second failure")
	}
}
