package backend_test

// The edge-nest differential, native against the VM. The benchmarks and
// testdata programs exercise almost none of the shapes the emitter
// branches on — which loop is innermost and which way it runs, what is
// fixed along it, which registers and accumulators a nest keeps local —
// so the hand-written edge programs (internal/programs/edges.go), the
// loop structures the compiler rarely picks and a slice of the random
// corpus go through both emissions here. Every case is a go build:
// tier-1 runs a cut of each matrix, `make backend-diff` (-full) all of it.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/programs"
)

var full = flag.Bool("full", false, "run the whole edge-nest and random-program matrices")

// sameAsVM requires the proof-carrying emission of c — and, when
// checked is set, the fully checked one a NoProve compilation gets — to
// exit cleanly having printed the VM's transcript.
func sameAsVM(t *testing.T, c *driver.Compilation, checked bool) {
	t.Helper()
	want := vmOutput(t, c)
	if got := nativeBoundsOutput(t, c); got != want {
		t.Errorf("proof-carrying native output diverges from VM\nnative: %q\nvm:     %q", got, want)
	}
	if !checked {
		return
	}
	if got := nativeOutput(t, c); got != want {
		t.Errorf("checked native output diverges from VM\nnative: %q\nvm:     %q", got, want)
	}
}

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
	rowsums, err := os.ReadFile("../../testdata/rowsums.za")
	if err != nil {
		t.Fatal(err)
	}
	compile := func(t *testing.T, src string, opt driver.Options) *driver.Compilation {
		t.Helper()
		c, err := driver.Compile(src, opt)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	levels := []core.Level{core.Baseline, core.C2, core.C2F4}
	if *full {
		levels = core.AllLevels()
	}
	ends := []core.Level{core.Baseline, core.C2F4}

	// The programs as compiled, with and without scalar replacement.
	srcs := []struct{ name, src string }{
		{"edges", programs.EdgeSrc}, {"guards", programs.GuardSrc}, {"perm", programs.PermSrc},
		{"cube", programs.Rank3Src}, {"rowsums", string(rowsums)}, {"builtins", programs.BuiltinSrc()},
	}
	for _, p := range srcs {
		for _, lvl := range levels {
			for _, sr := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/scalarrep=%t", p.name, lvl, sr), func(t *testing.T) {
					t.Parallel()
					sameAsVM(t, compile(t, p.src, driver.Options{Level: lvl, ScalarReplace: sr}), true)
				})
			}
		}
	}

	// Extents of 1 and 2: loops that run once, rows of one element.
	for _, n := range []int64{1, 2} {
		for _, p := range srcs[3:] {
			for _, lvl := range ends {
				t.Run(fmt.Sprintf("%s n=%d/%s", p.name, n, lvl), func(t *testing.T) {
					t.Parallel()
					sameAsVM(t, compile(t, p.src, driver.Options{Level: lvl, Configs: map[string]int64{"n": n}}), *full)
				})
			}
		}
	}

	// Every signed loop structure, imposed as the VM's width test does
	// (both programs' nests have null distances only): descending and
	// strided innermost loops, row offsets over the second dimension,
	// guards that clip and guards that exclude rows — where what was
	// hoisted is evaluated on rows the statement skips.
	for _, order := range []dep.LoopStructure{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}, {2, 1}, {2, -1}, {-2, 1}, {-2, -1}} {
		for _, p := range srcs[1:3] {
			for _, lvl := range ends {
				t.Run(fmt.Sprintf("%s %v/%s", p.name, order, lvl), func(t *testing.T) {
					t.Parallel()
					c := compile(t, p.src, driver.Options{Level: lvl})
					for _, nest := range lir.Nests(c.LIR.Main.Body) {
						nest.Order = order
					}
					sameAsVM(t, c, *full)
				})
			}
		}
	}

	// A reduction target read inside the nest that accumulates it must
	// stay in memory: 31.5 is the largest A times the sum so far, and a
	// private accumulator would leave the read at zero.
	t.Run("selfread", func(t *testing.T) {
		t.Parallel()
		c := compile(t, selfReadSrc, driver.Options{Level: core.C2F4})
		injected := false
		for _, nest := range lir.Nests(c.LIR.Main.Body) {
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
		if !injected {
			t.Fatal("the two reductions did not fuse into one nest; the case is vacuous")
		}
		if got := vmOutput(t, c); got != "10.5 31.5\n" {
			t.Fatalf("VM prints %q, want the running value folded: 10.5 31.5", got)
		}
		sameAsVM(t, c, true)
	})

	// The random corpus the other differentials draw from.
	seeds := 4
	if *full {
		seeds = 40
	}
	for seed := 1; seed <= seeds; seed++ {
		src := programs.Random(rand.New(rand.NewSource(int64(seed))))
		for _, opt := range []driver.Options{
			{Level: core.Baseline},
			{Level: core.C2F4},
			{Level: core.C2F3, ScalarReplace: true},
		} {
			t.Run(fmt.Sprintf("seed %d/%s/scalarrep=%t", seed, opt.Level, opt.ScalarReplace), func(t *testing.T) {
				t.Parallel()
				sameAsVM(t, compile(t, src, opt), *full)
			})
		}
	}
}
