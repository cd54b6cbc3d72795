package backend_test

// The edge-nest rows of the matrix, native against the VM. The
// benchmarks and testdata programs exercise almost none of the shapes
// the emitter branches on — which loop is innermost and which way it
// runs, what is fixed along it, which registers and accumulators a nest
// keeps local — so the hand-written edge programs
// (internal/programs/edges.go), the loop structures the compiler rarely
// picks and a slice of the random corpus go through both emissions
// here. Every case is a go build: tier-1 runs a cut of each row, -full
// (make ci) all of it.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/programs"
)

// selfReadSrc is a nest whose second reduction will read the running
// value of the first: the test replaces the 77 with the first target,
// which the compiler itself never fuses into the nest that computes it.
// The region is one column wide, so the VM's strips are single elements
// and it, too, interleaves the statements element by element.
const selfReadSrc = `
program selfread;
config m : integer = 6;
region Col = [1..m, 1..1];
var A : [Col] double;
var s, t : double;
proc main()
begin
  [Col] A := index1 * 0.5;
  s := +<< [Col] A;
  t := max<< [Col] A * 77.0;
  writeln(s, t);
end;
`

func TestNativeEdgeNests(t *testing.T) {
	requireToolchain(t)
	if testing.Short() {
		t.Skip("invokes the go toolchain repeatedly")
	}
	// Past the first row, tier-1 builds only the proof-carrying emission.
	both, cut := matrix.Go|matrix.GoProved, matrix.GoProved
	if matrix.Full() {
		cut = both
	}
	ends := []core.Level{core.Baseline, core.C2F4}
	edges := matrix.Edges(t)
	var cells []matrix.Cell

	// The programs as compiled, with and without scalar replacement.
	for _, p := range edges {
		for _, lvl := range matrix.Ladder(core.Baseline, core.C2, core.C2F4) {
			for _, sr := range []bool{false, true} {
				c := p.At(lvl, both)
				c.Name += fmt.Sprintf("/scalarrep=%t", sr)
				c.Opt.ScalarReplace = sr
				cells = append(cells, c)
			}
		}
	}

	// Extents of 1 and 2: loops that run once, rows of one element.
	for _, n := range []int64{1, 2} {
		for _, p := range edges[3:] {
			for _, lvl := range ends {
				c := p.At(lvl, cut)
				c.Name = fmt.Sprintf("%s n=%d/%s", p.Name, n, lvl)
				c.Opt.Configs = map[string]int64{"n": n}
				cells = append(cells, c)
			}
		}
	}

	// Every signed loop structure, imposed as the VM's width test does
	// (both programs' nests have null distances only): descending and
	// strided innermost loops, row offsets over the second dimension,
	// guards that clip and guards that exclude rows — where what was
	// hoisted is evaluated on rows the statement skips.
	for _, order := range []dep.LoopStructure{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}, {2, 1}, {2, -1}, {-2, 1}, {-2, -1}} {
		for _, p := range edges[1:3] {
			for _, lvl := range ends {
				c := p.At(lvl, cut)
				c.Name = fmt.Sprintf("%s %v/%s", p.Name, order, lvl)
				c.Edit = func(comp *driver.Compilation) {
					for _, nest := range lir.Nests(comp.LIR.Main.Body) {
						nest.Order = order
					}
				}
				cells = append(cells, c)
			}
		}
	}

	// The random corpus the other differentials draw from.
	seeds := 4
	if matrix.Full() {
		seeds = 40
	}
	for seed := 1; seed <= seeds; seed++ {
		src := programs.Random(rand.New(rand.NewSource(int64(seed))))
		for _, opt := range []driver.Options{
			{Level: core.Baseline},
			{Level: core.C2F4},
			{Level: core.C2F3, ScalarReplace: true},
		} {
			name := fmt.Sprintf("seed %d/%s/scalarrep=%t", seed, opt.Level, opt.ScalarReplace)
			cells = append(cells, matrix.Cell{Name: name, Src: src, Opt: opt, Engines: cut})
		}
	}
	matrix.Run(t, cells...)

	// A reduction target read inside the nest that accumulates it must
	// stay in memory: 31.5 is the largest A times the sum so far, and a
	// private accumulator would leave the read at zero. The edit gives
	// the program a meaning its source does not have, so Reference is
	// the one column that may disagree.
	t.Run("selfread", func(t *testing.T) {
		t.Parallel()
		injected := false
		c := matrix.Program{Name: "selfread", Src: selfReadSrc}.At(core.C2F4, both)
		c.Edit = func(comp *driver.Compilation) {
			for _, nest := range lir.Nests(comp.LIR.Main.Body) {
				first := ""
				for _, s := range nest.Body {
					if b, ok := s.RHS.(*air.BinExpr); ok && s.IsReduce && first != "" {
						if k, ok := b.Y.(*air.ConstExpr); ok && k.Val == 77 {
							b.Y, injected = &air.ScalarExpr{Name: first}, true
						}
					}
					if s.IsReduce && first == "" {
						first = s.Target
					}
				}
			}
		}
		out, bad := matrix.Diff(c)
		if !injected {
			t.Fatal("the two reductions did not fuse into one nest; the case is vacuous")
		}
		if out != "10.5 31.5\n" {
			t.Fatalf("VM prints %q, want the running value folded: 10.5 31.5", out)
		}
		for _, b := range bad {
			if !strings.Contains(b, "Reference") {
				t.Error(b)
			}
		}
	})
}
