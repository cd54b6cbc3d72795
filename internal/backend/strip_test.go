package backend_test

// The strip rows of the matrix: native nests that run strips
// (gogen's rule, DESIGN.md §13 "Strips on native") against the VM, at
// the extents and guards where a strip's edge lands somewhere new.

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/kernel"
	"repro/internal/programs"
)

// stripSpecialSrc folds special values with each reduction in nests
// that run strips (the operand's product by 1 keeps every bit, NaN
// payloads and signed zeros included, and gives the nest an operator
// with a packed kernel). Row 1 holds finite values whose sum depends on
// its order, straddling the first strip boundary; row 2 ±0 and ±Inf;
// row 3 ±0 alone, where max and min choose by sign; row 4 a NaN among
// them. The guarded nests clip at the strip boundary: one guard ends on
// it, one starts past it.
const stripSpecialSrc = `
program stripspecials;
config n : integer = 131;
region R = [1..4, 1..n];
var X, Y : [R] double;
var z, s1, s2, s3, s4, m1, m2, m3, m4, l1, l2, l3, l4, g1, g2 : double;
proc main()
begin
  z := 0.0;
  [R] X := index2 * 0.001;
  [1..1, 127..127] X := 1.0e16;
  [1..1, 128..128] X := 1.0;
  [1..1, 129..129] X := -1.0e16;
  [1..1, 130..130] X := 3.0;
  [2..3, 1..n] X := -z;
  [2..3, 2..2] X := z;
  [2..2, 128..128] X := 1.0 / z;
  [2..2, 129..129] X := -1.0 / z;
  [3..3, 128..128] X := z;
  [4..4, 129..129] X := z / z;
  for it := 1 to 1 do
    s1 := +<< [1..1, 1..n] X * 1.0;
    s2 := +<< [2..2, 1..n] X * 1.0;
    s3 := +<< [3..3, 1..n] X * 1.0;
    s4 := +<< [4..4, 1..n] X * 1.0;
    m1 := max<< [1..1, 1..n] X * 1.0;
    m2 := max<< [2..2, 1..n] X * 1.0;
    m3 := max<< [3..3, 1..n] X * 1.0;
    m4 := max<< [4..4, 1..n] X * 1.0;
    l1 := min<< [1..1, 1..n] X * 1.0;
    l2 := min<< [2..2, 1..n] X * 1.0;
    l3 := min<< [3..3, 1..n] X * 1.0;
    l4 := min<< [4..4, 1..n] X * 1.0;
    [1..4, 1..128] Y := X * 2.0 + sin(X);
    [1..4, 129..n] Y := X * 3.0;
    g1 := +<< [1..4, 2..129] Y * 1.0;
    g2 := max<< [2..4, 1..n] Y - X;
  end;
  writeln(s1, s2, s3, s4);
  writeln(m1, m2, m3, m4);
  writeln(l1, l2, l3, l4);
  writeln(g1, g2);
end;
`

// stripExtents are the strip-dimension extents where a strip's edge
// falls somewhere new: one element and one short of a strip (rows the
// rule leaves to the scalar sweep), one strip, one past it, two strips
// less one (a last strip one short) and two strips and one.
var stripExtents = []int64{1, kernel.Width - 1, kernel.Width, kernel.Width + 1, 2*kernel.Width - 1, 2*kernel.Width + 1}

// TestNativeStripEdges: nests that run strips print the VM's bytes on
//   - the edge programs (guards that clip along the strip dimension and
//     guards that exclude rows, contracted registers written under one
//     guard and read under another, stencil offsets ±1 at row ends,
//     all four reductions) and every builtin at every extent of
//     stripExtents where their regions are not empty (below one strip
//     only a nest whose fused translates widen its rows runs strips);
//   - the reductions over special values (stripSpecialSrc);
//   - the six benchmarks and heat at the ladder ends at sizes whose rows
//     cross a strip boundary;
//   - a threaded worker nest (heat above the split threshold), which
//     runs strips within its chunk of rows.
//
// Each program whose rows hold at least one strip is also required to
// run strips somewhere, or the cell is vacuous. Tier-1 builds the proof-carrying emission past the first
// extent; -full both.
func TestNativeStripEdges(t *testing.T) {
	requireToolchain(t)
	if testing.Short() {
		t.Skip("invokes the go toolchain repeatedly")
	}
	if !kernel.HasPacked() {
		t.Skip("no packed kernels on this host: no nest runs strips")
	}
	both, cut := matrix.Go|matrix.GoProved, matrix.GoProved
	if matrix.Full() {
		cut = both
	}
	ends := []core.Level{core.Baseline, core.C2F4}
	heat, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	var cells []matrix.Cell
	add := func(name, src string, configs map[string]int64, lvl core.Level, es matrix.Engine) {
		if n, ok := configs["n"]; !ok || n >= kernel.Width {
			requireStrips(t, name, src, configs, lvl)
		}
		cells = append(cells, matrix.Cell{Name: fmt.Sprintf("%s/%s", name, lvl), Src: src,
			Opt: driver.Options{Level: lvl, Configs: configs}, Engines: es})
	}
	for i, n := range stripExtents {
		es := both
		if i > 0 {
			es = cut
		}
		for _, p := range []struct{ name, src string }{
			{"edges", programs.EdgeSrc}, {"guards", programs.GuardSrc}, {"perm", programs.PermSrc},
			{"builtins", programs.BuiltinSrc()},
		} {
			if n < 4 && (p.name == "edges" || p.name == "perm") {
				continue // their interior regions are empty
			}
			for _, lvl := range ends {
				add(fmt.Sprintf("%s n=%d", p.name, n), p.src, map[string]int64{"m": 3, "n": n}, lvl, es)
			}
		}
	}
	for _, lvl := range ends {
		add("specials", stripSpecialSrc, nil, lvl, both)
		add("heat n=131", string(heat), map[string]int64{"n": 131, "steps": 2}, lvl, cut)
		for _, b := range programs.All() {
			n := int64(kernel.Width + 3)
			if b.Rank == 1 {
				n = 8*kernel.Width + 5
			}
			add(fmt.Sprintf("%s n=%d", b.Name, n), b.Source, map[string]int64{b.SizeConfig: n}, lvl, cut)
		}
	}
	matrix.Run(t, cells...)

	t.Run("threaded", func(t *testing.T) {
		art, c, spec, goSrc := threadedHeat(t)
		if !regexp.MustCompile(fmt.Sprintf(`(?s)func zaN_\d+\(.*?\+= %d\b`, kernel.Width)).MatchString(goSrc) {
			t.Fatal("heat's threaded nest runs no strips")
		}
		want := matrix.Check(t, matrix.Cell{Name: "heat threaded", Src: string(heat),
			Opt: driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": threadedSize(2)}}})
		if _, replies := runThreaded(t, art, c, spec, "2"); replies[0] != want {
			t.Errorf("threaded worker's first run printed %q, the VM %q", replies[0], want)
		}
	})
}

// requireStrips fails the test unless src at lvl, emitted for a host
// with the packed kernels, runs at least one nest as strips.
func requireStrips(t *testing.T, name, src string, configs map[string]int64, lvl core.Level) {
	t.Helper()
	c, err := driver.Compile(src, driver.Options{Level: lvl, Configs: configs})
	if err != nil {
		t.Fatalf("%s at %v: %v", name, lvl, err)
	}
	goSrc, err := gogen.EmitBounds(c.LIR, c.Bounds)
	if err != nil {
		t.Fatalf("%s at %v: %v", name, lvl, err)
	}
	if !strings.Contains(goSrc, "\n// strips: ") {
		t.Fatalf("%s at %v: no nest runs strips; the cell is vacuous", name, lvl)
	}
}

// TestStripSpecialsAreSpecial: stripSpecialSrc's rows hold what its
// comment says, so its cells fold the values they are meant to.
func TestStripSpecialsAreSpecial(t *testing.T) {
	got := matrix.Check(t, matrix.Cell{Name: "specials", Src: stripSpecialSrc, Opt: driver.Options{Level: core.Baseline}})
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		rows = append(rows, strings.Fields(line))
	}
	want := [][]string{
		{"", "NaN", "0", "NaN"},   // s2: +Inf meets -Inf; s3: ±0
		{"", "+Inf", "0", "NaN"},  // max: +0 beats -0
		{"", "-Inf", "-0", "NaN"}, // min: -0 beats +0
	}
	for r, w := range want {
		for k, v := range w {
			if v != "" && (len(rows) <= r || len(rows[r]) <= k || rows[r][k] != v) {
				t.Errorf("row %d of %q: want %q in column %d", r+1, got, v, k+1)
			}
		}
	}
}
