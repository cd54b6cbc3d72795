// Package matrix is the module's one differential oracle. A cell is a
// program under one plan, compiled once with the static verifier on and
// run on the engines it names: the VM, the VM traced (strip width one),
// the checked native build, the proof-carrying one, and at each of its
// processor counts the comm-compiled program on the VM and on distvm.
// The sequential engines of one compilation must print the same bytes,
// and every transcript must match difftest.Reference, the §2.1 meaning
// of the source, within difftest.Close. Only test files import this
// package (TestTestOnlyImports).
package matrix

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/air"
	"repro/internal/backend"
	"repro/internal/comm"
	"repro/internal/difftest"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/programs"
	"repro/internal/vm"
)

var full = flag.Bool("full", false, "run the whole differential matrix: every ladder level and every native cell")

// Full reports whether -full (make ci) asks for the whole matrix rather
// than the tier-1 cut.
func Full() bool { return *full }

// Engine is a set of sequential engines.
type Engine uint8

// The sequential engines; the VM runs in every cell.
const (
	VM       Engine = 1 << iota // the strip-at-a-time interpreter
	Traced                      // the VM with a no-op Tracer: width 1, element order
	Go                          // the checked native build (gogen.Emit)
	GoProved                    // the proof-carrying native build (gogen.EmitBounds)
)

var columns = []struct {
	e    Engine
	name string
}{{Traced, "vm-traced"}, {Go, "go"}, {GoProved, "go-proved"}}

// Cell is one program under one plan and the engines it runs on.
type Cell struct {
	Name    string // program/plan: the subtest's name and every finding's prefix
	Src     string
	Opt     driver.Options // the plan and sizes; Check is always set
	Engines Engine
	// Procs also compiles the cell for each processor count and runs it
	// on the VM and on distvm, which must keep its replicated scalars
	// identical and gather the sequential VM's arrays.
	Procs []int
	// Proven requires the bounds prover to prove every access site.
	Proven bool
	// Edit rewrites the compilation before any engine runs it: an
	// imposed loop order, or a miscompile every engine inherits.
	Edit func(*driver.Compilation)
	// Miscompile rewrites the go column's emitted source before it is
	// built (backend.SeedFault): a fault that column alone carries.
	Miscompile func(goSrc string) (string, bool)
}

// Diff runs the cell and returns the VM's transcript and one line per
// disagreement, each naming the cell and the column.
func Diff(c Cell) (string, []string) {
	var bad []string
	report := func(col, format string, args ...any) {
		bad = append(bad, c.Name+" "+col+": "+fmt.Sprintf(format, args...))
	}
	opt := c.Opt
	opt.Check = true
	comp, err := driver.Compile(c.Src, opt)
	if err != nil {
		report("compile", "%v", err)
		return "", bad
	}
	if c.Edit != nil {
		c.Edit(comp)
	}
	if c.Proven && !comp.Bounds.AllProven() {
		report("prove", "%d of %d access sites proven", comp.Bounds.NumProven, len(comp.Bounds.Sites))
	}
	var ref bytes.Buffer
	prog, _, err := driver.FrontEnd(context.Background(), c.Src, opt.Configs, driver.Hooks{})
	if err == nil {
		err = difftest.Reference(prog, &ref)
	}
	refOK := err == nil
	if !refOK {
		report("Reference", "%v", err)
	}
	out, m, steps, err := c.run(VM, comp)
	if err != nil {
		report("vm", "%v", err)
		return "", bad
	}
	// agree holds a column to the vm, bytewise or (distributed) Close,
	// and to Reference.
	agree := func(col, got string, exact bool) {
		if exact && got != out || !difftest.Close(got, out) {
			report(col, "transcript differs from vm\n got  %q\n want %q", got, out)
		}
		if refOK && !difftest.Close(got, ref.String()) {
			report(col, "transcript differs from Reference\n got  %q\n want %q", got, ref.String())
		}
	}
	agree("vm", out, true)
	for _, col := range columns {
		if c.Engines&col.e == 0 {
			continue
		}
		got, _, n, err := c.run(col.e, comp)
		if err != nil {
			report(col.name, "%v", err)
			continue
		}
		agree(col.name, got, true)
		if col.e == Traced && n != steps {
			report(col.name, "%d steps, the vm %d", n, steps)
		}
	}

	for _, p := range c.Procs {
		co := comm.DefaultOptions(p)
		dopt := opt
		dopt.Comm = &co
		dc, err := driver.Compile(c.Src, dopt)
		if err != nil {
			report(fmt.Sprintf("p=%d compile", p), "%v", err)
			continue
		}
		if got, _, _, err := c.run(VM, dc); err != nil {
			report(fmt.Sprintf("vm p=%d", p), "%v", err)
		} else {
			agree(fmt.Sprintf("vm p=%d", p), got, false)
		}
		col := fmt.Sprintf("distvm p=%d", p)
		var dist bytes.Buffer
		dm, err := distvm.Run(dc.LIR, distvm.Options{Procs: p, Out: &dist})
		if err != nil {
			report(col, "%v", err)
			continue
		}
		agree(col, dist.String(), false)
		if err := dm.ScalarsConsistent(); err != nil {
			report(col, "%v", err)
		}
		for name, info := range comp.AIR.Arrays {
			if d := dc.AIR.Arrays[name]; info.Contracted || d == nil || d.Contracted {
				continue
			}
			want, got := m.ArrayData(name), dm.Gather(name)
			for i := range want {
				if len(got) != len(want) || !difftest.CloseFloat(want[i], got[i]) {
					report(col, "gathered %s differs from the vm's at element %d", name, i)
					break
				}
			}
		}
	}
	return out, bad
}

// run runs comp on one sequential engine: its transcript and, on the
// two VM engines, the machine and its step count.
func (c Cell) run(e Engine, comp *driver.Compilation) (string, *vm.Machine, int64, error) {
	var out bytes.Buffer
	if e == VM || e == Traced {
		opt := vm.Options{Out: &out}
		if e == Traced {
			opt.Tracer = nopTracer{}
		}
		m, res, err := comp.Run(opt)
		if err != nil {
			return "", nil, 0, err
		}
		return out.String(), m, res.Steps, nil
	}
	bounds := comp.Bounds
	if e == Go {
		bounds = nil
	}
	src, err := gogen.EmitBounds(comp.LIR, bounds)
	if err == nil && e == Go && c.Miscompile != nil {
		var ok bool
		if src, ok = c.Miscompile(src); !ok {
			err = errors.New("the program offers no site to miscompile")
		}
	}
	if err != nil {
		return "", nil, 0, err
	}
	art, err := Store().Build(context.Background(), src)
	if err == nil {
		_, err = art.Run(context.Background(), &out)
	}
	return out.String(), nil, 0, err
}

// Check runs the cell, fails t on each disagreement and returns the
// VM's transcript.
func Check(t testing.TB, c Cell) string {
	t.Helper()
	out, bad := Diff(c)
	for _, b := range bad {
		t.Error(b)
	}
	return out
}

// Run runs each cell as a subtest named by the cell. A cell with a
// native engine runs in parallel: its time is the toolchain's.
func Run(t *testing.T, cells ...Cell) {
	t.Helper()
	for _, c := range cells {
		t.Run(c.Name, func(t *testing.T) {
			if c.Engines&(Go|GoProved) != 0 {
				t.Parallel()
			}
			Check(t, c)
		})
	}
}

// Quick runs the cells of each random program cfg draws (programs.Random
// of a generated seed). A program with a disagreement is logged with its
// seed, shrunk by programs.Shrink to the statements that keep the first
// one in the same cell and column.
func Quick(t *testing.T, cfg *quick.Config, cells func(src string) []Cell) {
	t.Helper()
	first := func(src string) string {
		for _, c := range cells(src) {
			if _, bad := Diff(c); len(bad) > 0 {
				return bad[0]
			}
		}
		return ""
	}
	f := func(seed int64) bool {
		src := programs.Random(rand.New(rand.NewSource(seed)))
		msg := first(src)
		if msg != "" {
			where := msg[:strings.Index(msg, ":")+1]
			small := programs.Shrink(src, func(s string) string {
				if m := first(s); strings.HasPrefix(m, where) {
					return m
				}
				return ""
			})
			t.Logf("seed %d: %s\nshrunk reproducer:\n%s", seed, msg, small)
		}
		return msg == ""
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Store is the artifact store every native engine of the process builds
// into. Tests that build sources of their own share it, so an emission
// two tests reach is built once.
var Store = sync.OnceValue(func() *backend.Store {
	dir, err := os.MkdirTemp("", "zpl-difftest")
	if err != nil {
		panic(err)
	}
	s, err := backend.Open(dir)
	if err != nil {
		panic(err)
	}
	return s
})

// nopTracer observes nothing; its presence makes the VM run at strip
// width 1.
type nopTracer struct{}

func (nopTracer) Access(int64, bool)                               {}
func (nopTracer) Flops(int64)                                      {}
func (nopTracer) Comm(string, air.Offset, int, air.CommPhase, int) {}
func (nopTracer) Reduce()                                          {}
