package harness

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/job"
)

// BackendRow is one benchmark × level cell of the VM-vs-native study:
// the differential check (the native binary's stdout must be
// byte-identical to the VM's) plus the wall-clock comparison. NativeMS
// is the binary's self-timed compute (process startup excluded), so
// the speedup compares the two execution engines, not exec overhead.
type BackendRow struct {
	Benchmark string  `json:"benchmark"`
	Level     string  `json:"level"`
	Match     bool    `json:"match"`     // always true: a divergence is an error, never a row
	VMMS      float64 `json:"vm_ms"`     // interpreter wall clock
	NativeMS  float64 `json:"native_ms"` // native compute wall clock
	BuildMS   float64 `json:"build_ms"`  // toolchain time (0 on a store hit)
	BuildHit  bool    `json:"build_hit"`
	Speedup   float64 `json:"speedup"` // VMMS / NativeMS
	Steps     int64   `json:"steps"`   // VM element statements
}

// interpret runs c on the VM and returns the run and what it printed.
func interpret(c *driver.Compilation) (*job.Result, string, error) {
	var out bytes.Buffer
	res, err := job.Run(context.Background(), c, job.RunSpec{}, &out, nil)
	return res, out.String(), err
}

// native builds c in the shared store and runs the binary the given
// number of times. It returns the first run and its output, and the
// fastest self-timed compute over all runs — the native compute is
// microseconds, so a single sample is scheduler noise.
func (e *Env) native(c *driver.Compilation, runs int) (first *job.Result, out string, best time.Duration, err error) {
	store, err := e.Store()
	if err != nil {
		return nil, "", 0, err
	}
	var buf bytes.Buffer
	for i := 0; i < runs; i++ {
		var w io.Writer = io.Discard
		if i == 0 {
			w = &buf
		}
		res, err := job.Run(context.Background(), c, job.RunSpec{Backend: driver.BackendGo}, w, store)
		if err != nil {
			return nil, "", 0, err
		}
		d := res.Compute
		if d <= 0 {
			d = res.Wall
		}
		if i == 0 {
			first, best = res, d
		}
		best = min(best, d)
	}
	return first, buf.String(), best, nil
}

// RunBackend measures every benchmark at every ladder level on both
// execution engines, asserting bit-identical output cell by cell. A
// mismatch is an error, not a row: a miscompile invalidates the whole
// table. Both engines keep every bounds check (the prove study
// measures what dropping them buys). Cells run on the worker pool; the
// shared store deduplicates identical emissions across cells.
func RunBackend(e *Env) ([]BackendRow, error) {
	return eachCell(e, grid(core.AllLevels()), func(c cell) (BackendRow, error) {
		opt := c.options(e.configs(c.b))
		opt.NoProve = true
		comp, err := e.compile(c.b.Source, opt)
		if err != nil {
			return BackendRow{}, err
		}
		vmRes, vmOut, err := interpret(comp)
		if err != nil {
			return BackendRow{}, fmt.Errorf("vm: %w", err)
		}
		nat, natOut, compute, err := e.native(comp, 1)
		if err != nil {
			return BackendRow{}, fmt.Errorf("native: %w", err)
		}
		if natOut != vmOut {
			return BackendRow{}, fmt.Errorf("native output diverges from VM\nnative: %q\nvm:     %q", natOut, vmOut)
		}
		return BackendRow{
			Benchmark: c.b.Name,
			Level:     c.lvl.String(),
			Match:     true,
			VMMS:      ms(vmRes.Wall),
			NativeMS:  ms(compute),
			BuildMS:   ms(nat.Art.Build),
			BuildHit:  nat.Art.Hit,
			Speedup:   float64(vmRes.Wall) / float64(compute),
			Steps:     vmRes.Steps,
		}, nil
	})
}

// FormatBackend renders the speedup table plus the per-benchmark
// summary. The speedup is reported, not judged: since the VM runs a
// strip at a time the two engines are within a small factor of each
// other at these sizes, and which one wins a ~1 ms cell is noise. What
// the study asserts is the differential (BackendAllMatch).
func FormatBackend(rows []BackendRow) string {
	var b strings.Builder
	b.WriteString("Native backend vs bytecode VM: bit-identical differential run,\n")
	b.WriteString("wall-clock speedup per benchmark x optimization level\n\n")
	fmt.Fprintf(&b, "%-10s %-10s %10s %12s %12s %10s %8s\n",
		"app", "level", "vm ms", "native ms", "build ms", "speedup", "match")
	var order []string
	speedups := map[string][]float64{}
	for _, r := range rows {
		build := fmt.Sprintf("%.0f", r.BuildMS)
		if r.BuildHit {
			build = "hit"
		}
		fmt.Fprintf(&b, "%-10s %-10s %10.2f %12.4f %12s %9.1fx %8s\n",
			r.Benchmark, r.Level, r.VMMS, r.NativeMS, build, r.Speedup, "ok")
		if speedups[r.Benchmark] == nil {
			order = append(order, r.Benchmark)
		}
		speedups[r.Benchmark] = append(speedups[r.Benchmark], r.Speedup)
	}

	b.WriteString("\nper-benchmark speedup (native over VM):\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "app", "geomean", "min", "max")
	for _, name := range order {
		fmt.Fprintf(&b, "%-10s %11.1fx %11.1fx %11.1fx\n",
			name, geomean(speedups[name]), slices.Min(speedups[name]), slices.Max(speedups[name]))
	}
	fmt.Fprintf(&b, "\nevery cell bit-identical: %d/%d\n", len(rows), len(rows))
	return b.String()
}

// BackendAllMatch reports whether the study ran and every cell's native
// output was byte-identical to the VM's — the table's acceptance
// condition.
func BackendAllMatch(rows []BackendRow) bool {
	for _, r := range rows {
		if !r.Match {
			return false
		}
	}
	return len(rows) > 0
}
