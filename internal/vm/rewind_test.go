package vm_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/absint"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/vm"
)

// snapshot is what a run of c left in m: its transcript, steps, and
// every array's and scalar's bits.
func snapshot(c *driver.Compilation, m *vm.Machine, out string, res *vm.Result) splitRun {
	r := splitRun{out: out, steps: res.Steps, arrays: map[string][]uint64{}, slots: map[string]uint64{}}
	for name := range c.LIR.Source.Arrays {
		for _, v := range m.ArrayData(name) {
			r.arrays[name] = append(r.arrays[name], math.Float64bits(v))
		}
	}
	for name, v := range m.Scalars() {
		r.slots[name] = math.Float64bits(v)
	}
	return r
}

// sameRun reports the first way got differs from want.
func sameRun(got, want splitRun) string {
	if got.out != want.out || got.steps != want.steps {
		return "transcript or steps differ: " + got.out + " vs " + want.out
	}
	for name, w := range want.arrays {
		g := got.arrays[name]
		if len(g) != len(w) {
			return name + ": storage of another length"
		}
		for i := range w {
			if g[i] != w[i] {
				return name + ": an element's bits differ"
			}
		}
	}
	for name, w := range want.slots {
		if got.slots[name] != w {
			return "scalar " + name + ": bits differ"
		}
	}
	return ""
}

// rewindCells are the six benchmarks and heat at their default sizes,
// baseline and c2+f4, heat at the size whose nests split (heat-446),
// readBeforeWrite, whose second nest reads a cell the previous run
// wrote and a fresh machine holds 0 in, and readScalar, the same of a
// scalar.
func rewindCells(t *testing.T) (names []string, comps []*driver.Compilation) {
	t.Helper()
	for _, p := range splitPrograms(t) {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			c, err := driver.Compile(p.Source, driver.Options{Level: lvl})
			if err != nil {
				t.Fatal(err)
			}
			names, comps = append(names, p.Name+"-"+lvl.String()), append(comps, c)
		}
	}
	return append(names, "heat-446", "read-before-write", "read-scalar"),
		append(comps, heatSplit(t), &driver.Compilation{LIR: readBeforeWrite()}, driver.MustCompile(readScalar, driver.Options{}))
}

// readScalar adds to a scalar before anything assigns it: a fresh
// machine's s is 0 and its config k is 3.
const readScalar = `
program acc;
config k : integer = 3;
var s : double;
proc main()
begin
  s := s + k;
  writeln(s);
end;
`

// TestRewindMatchesFresh: a machine rewound after a run that stopped at
// half its step budget, then again after a run under an exact budget,
// prints the transcript, charges the steps and leaves every array and
// scalar with the bits of a fresh vm.New's run; a budget one step short
// fails it as it fails a fresh machine. Rewind takes Out, Ctx and
// MaxSteps from its options, and everything else from the state New
// leaves. At GOMAXPROCS 1 and 2; heat-446's nests split at 2.
func TestRewindMatchesFresh(t *testing.T) {
	names, comps := rewindCells(t)
	for i, c := range comps {
		t.Run(names[i], func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				atProcs(procs, func() {
					fresh := func(max int64) (splitRun, error) {
						var out bytes.Buffer
						m, err := vm.New(c.LIR, vm.Options{Out: &out, Bounds: c.Bounds, MaxSteps: max})
						if err != nil {
							t.Fatal(err)
						}
						res, err := m.Run()
						if err != nil {
							return splitRun{}, err
						}
						return snapshot(c, m, out.String(), res), nil
					}
					want, err := fresh(0)
					if err != nil {
						t.Fatal(err)
					}
					var out bytes.Buffer
					m, err := vm.New(c.LIR, vm.Options{Out: &out, Bounds: c.Bounds, MaxSteps: want.steps / 2})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "budget exceeded") {
						t.Fatalf("GOMAXPROCS %d: a run at half its steps = %v, want the budget exceeded", procs, err)
					}
					for _, max := range []int64{0, want.steps} {
						out.Reset()
						if !m.Rewind(vm.Options{Out: &out, Bounds: c.Bounds, MaxSteps: max}) {
							t.Fatalf("GOMAXPROCS %d: Rewind refused the options the machine was built with", procs)
						}
						res, err := m.Run()
						if err != nil {
							t.Fatalf("GOMAXPROCS %d, MaxSteps %d: %v", procs, max, err)
						}
						if d := sameRun(snapshot(c, m, out.String(), res), want); d != "" {
							t.Errorf("GOMAXPROCS %d, rewound to MaxSteps %d: %s", procs, max, d)
						}
					}
					_, wantErr := fresh(want.steps - 1)
					m.Rewind(vm.Options{Bounds: c.Bounds, MaxSteps: want.steps - 1})
					if _, err := m.Run(); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
						t.Errorf("GOMAXPROCS %d, one step short: rewound %v, fresh %v", procs, err, wantErr)
					}
				})
			}
		})
	}
}

// TestRewindRefuses: Rewind refuses, and changes nothing, where New
// would build another machine: a Tracer on either side, other Bounds,
// or a split machine under another GOMAXPROCS.
func TestRewindRefuses(t *testing.T) {
	c := heatSplit(t)
	model, _ := machine.ByName("t3e")
	refused := func(what string, m *vm.Machine, opt vm.Options) {
		t.Helper()
		v, _ := m.Scalar("heatsum")
		if m.Rewind(opt) {
			t.Errorf("%s: Rewind accepted", what)
		}
		if got, _ := m.Scalar("heatsum"); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("%s: a refused Rewind changed the machine", what)
		}
	}
	atProcs(2, func() {
		m, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		refused("a traced run", m, vm.Options{Bounds: c.Bounds, Tracer: machine.NewCostTracer(model, 1)})
		refused("no bounds", m, vm.Options{})
		refused("other bounds", m, vm.Options{Bounds: &absint.Result{}})
		atProcs(1, func() { refused("GOMAXPROCS 1", m, vm.Options{Bounds: c.Bounds}) })

		traced, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds, Tracer: machine.NewCostTracer(model, 1)})
		if err != nil {
			t.Fatal(err)
		}
		refused("a traced machine", traced, vm.Options{Bounds: c.Bounds})
	})
}
