package job

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
)

// residentHeat is heat at n=32, c2+f4, made resident as the memory
// tier of a zpld makes its VM entries (ccache.Cache.Put).
func residentHeat(t *testing.T) *driver.Compilation {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(context.Background(), string(src), driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": 32}})
	if err != nil {
		t.Fatal(err)
	}
	c.Resident()
	return c
}

// TestHotRunAllocs is the ceiling on a hot Run, a resident compilation's
// run after its first: the machine the first run handed back is
// rewound, not rebuilt, so what is left is job's Result, the machine's
// and the writeln's: 4 when the ceiling was set, 163 when every run
// built its machine.
func TestHotRunAllocs(t *testing.T) {
	c := residentHeat(t)
	ctx := context.Background()
	var out bytes.Buffer
	run := func() {
		out.Reset()
		if _, err := Run(ctx, c, RunSpec{}, &out, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 6 {
		t.Errorf("hot Run(heat n=32 c2+f4): %.0f allocations, ceiling 6", allocs)
	}
}

// TestFailedRunDropsItsMachine: a run that stops at its step budget
// leaves its machine where it stopped, and the next run prints the
// bytes and charges the steps of a fresh machine; so does one after a
// run that succeeded under a larger budget.
func TestFailedRunDropsItsMachine(t *testing.T) {
	c := residentHeat(t)
	ctx := context.Background()
	fresh := &driver.Compilation{LIR: c.LIR, Bounds: c.Bounds}
	var want bytes.Buffer
	ref, err := Run(ctx, fresh, RunSpec{}, &want, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range []RunSpec{{}, {MaxSteps: ref.Steps / 2}, {}, {MaxSteps: 4 * ref.Steps}, {}} {
		var out bytes.Buffer
		res, err := Run(ctx, c, rs, &out, nil)
		if rs.MaxSteps == ref.Steps/2 {
			if err == nil || !strings.Contains(err.Error(), "budget exceeded") {
				t.Fatalf("run %d at half the steps: %v, want the budget exceeded", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if out.String() != want.String() || res.Steps != ref.Steps {
			t.Errorf("run %d: %d steps, %q; fresh: %d steps, %q", i, res.Steps, out.String(), ref.Steps, want.String())
		}
	}
}
