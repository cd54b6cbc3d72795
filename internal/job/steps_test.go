package job

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
)

var updateSteps = flag.Bool("update", false, "rewrite testdata/vm/steps.json from this build's Result.Steps")

// TestStepsPinned pins Result.Steps, the element-statements a run
// charges, for the six benchmarks at their run-interp size (twice
// DefaultSize, where frac's nests split on a multi-core VM) at every
// level, with and without scalar replacement (whose preloads are
// charged), on the VM and on distvm at p=2. Steps is what zplrun's
// stderr line, zpld's steps field and the bench's per-element times
// divide by; a changed entry is a changed charge, never noise, so the
// file is only rewritten (-update) for a deliberate change to what a
// run charges.
func TestStepsPinned(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "vm", "steps.json")
	ctx := context.Background()
	co, err := CommOptions(2, "")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, b := range programs.All() {
		cfg := map[string]int64{b.SizeConfig: 2 * b.DefaultSize}
		for _, lvl := range core.AllLevels() {
			for _, sr := range []bool{false, true} {
				id := fmt.Sprintf("%s/%s", b.Name, lvl)
				if sr {
					id += "/scalarrep"
				}
				for _, dist := range []bool{false, true} {
					opt, rs, cell := driver.Options{Level: lvl, Configs: cfg, ScalarReplace: sr}, RunSpec{}, id+"/vm"
					if dist {
						opt.Comm, rs, cell = co, RunSpec{Dist: true, Procs: 2}, id+"/p2"
					}
					c, err := Compile(ctx, b.Source, opt)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					res, err := Run(ctx, c, rs, io.Discard, nil)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					got[cell] = res.Steps
				}
			}
		}
	}
	if *updateSteps {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/job -run TestStepsPinned -update)", err)
	}
	want := map[string]int64{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cells run, %d pinned", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s: %d steps, pinned %d", id, got[id], w)
		}
	}
}
