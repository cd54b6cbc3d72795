package vm_test

// The special-value differential. max<<, min<<, max(), min(), abs and
// sign over ±0, three NaN bit patterns, ±Inf and ties, on every engine:
// the VM at each strip width, distvm at p=2 and the native build. Each
// result must have the bits of math.Max, math.Min or math.Abs applied
// as a left fold, which is what the engines' fast paths (internal/kernel's
// fmax, gogen's za_max) claim to compute without calling them.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/vm"
)

// zero is a variable so that the specials below are computed at run
// time, the way the program computes them.
var zero = 0.0

// specials are the program's scalars s1..s9 in order: +0, -0, +Inf,
// -Inf, the division's NaN, it negated, math.NaN() (what math.Max makes
// of a NaN), and a tie pair.
func specials() []float64 {
	z := zero
	return []float64{0, -z, 1 / z, -1 / z, z / z, -(z / z), math.Max(z/z, z/z), 2, -2}
}

// specialScalars are the ZA right-hand sides of s1..s9.
var specialScalars = []string{"0.0", "-z", "1.0 / z", "-1.0 / z", "z / z", "-(z / z)", "max(z / z, z / z)", "2.0", "-2.0"}

// specialSrc builds V = s1..s9 and P, whose column 9j+i holds the pair
// (s_j, s_i), then inside a loop (so that no result is contracted away)
// takes max() and min() of every pair vector-vector (MX, MN), of every
// special against every other as vector-uniform (XU, NU) and
// uniform-vector (UX, UN), abs and sign of V, max<< and min<< of every
// pair as a partial reduction (PMX, PMN) and as full reductions (mxK,
// mnK).
func specialSrc() string {
	const n = 9
	var b strings.Builder
	b.WriteString("program specials;\nregion V9 = [1..1, 1..9];\nregion P2 = [1..2, 1..81];\nregion Row = [1..1, 1..81];\nregion Sq = [1..9, 1..9];\n")
	b.WriteString("var V, AB, SG : [V9] double;\nvar P : [P2] double;\nvar MX, MN, PMX, PMN : [Row] double;\nvar XU, UX, NU, UN : [Sq] double;\n")
	var names []string
	for i := 1; i <= n; i++ {
		names = append(names, fmt.Sprintf("s%d", i))
	}
	for k := 1; k <= n*n; k++ {
		names = append(names, fmt.Sprintf("mx%d", k), fmt.Sprintf("mn%d", k))
	}
	fmt.Fprintf(&b, "var z, t, %s : double;\nproc main()\nbegin\n  z := 0.0;\n", strings.Join(names, ", "))
	for i, rhs := range specialScalars {
		fmt.Fprintf(&b, "  s%d := %s;\n  [1..1, %d..%d] V := s%d;\n", i+1, rhs, i+1, i+1, i+1)
	}
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "  [1..1, %d..%d] P := s%d;\n", n*j+1, n*j+n, j+1)
		fmt.Fprintf(&b, "  [2..2, %d..%d] P := V@(-1, %d);\n", n*j+1, n*j+n, -n*j)
	}
	b.WriteString("  for it := 1 to 1 do\n")
	b.WriteString("    [Row] MX := max(P, P@(1, 0));\n    [Row] MN := min(P, P@(1, 0));\n")
	b.WriteString("    [V9] AB := abs(V);\n    [V9] SG := sign(V);\n")
	for k := 1; k <= n; k++ {
		r := fmt.Sprintf("[%d..%d, 1..9]", k, k)
		fmt.Fprintf(&b, "    %s XU := max(V@(%d, 0), s%d);\n    %s UX := max(s%d, V@(%d, 0));\n", r, 1-k, k, r, k, 1-k)
		fmt.Fprintf(&b, "    %s NU := min(V@(%d, 0), s%d);\n    %s UN := min(s%d, V@(%d, 0));\n", r, 1-k, k, r, k, 1-k)
	}
	b.WriteString("    [Row] PMX := max<< [P2] P;\n    [Row] PMN := min<< [P2] P;\n")
	for k := 1; k <= n*n; k++ {
		fmt.Fprintf(&b, "    mx%d := max<< [1..2, %d..%d] P;\n    mn%d := min<< [1..2, %d..%d] P;\n", k, k, k, k, k, k)
	}
	b.WriteString("  end;\n")
	for _, x := range []string{"AB", "SG"} {
		fmt.Fprintf(&b, "  t := +<< [V9] %s;\n", x)
	}
	for _, x := range []string{"MX", "MN", "PMX", "PMN"} {
		fmt.Fprintf(&b, "  t := +<< [Row] %s;\n", x)
	}
	for _, x := range []string{"XU", "UX", "NU", "UN"} {
		fmt.Fprintf(&b, "  t := +<< [Sq] %s;\n", x)
	}
	b.WriteString("end;\n")
	return b.String()
}

// state is what one engine leaves: each array row-major over its
// allocation, and the scalars.
type state struct {
	arrays  map[string][]float64
	scalars map[string]float64
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// checkSpecials holds one engine's state to the left folds of math.Max
// and math.Min over the specials.
func checkSpecials(t *testing.T, engine string, c *driver.Compilation, st state) {
	t.Helper()
	s := specials()
	at := func(name string, idx ...int) float64 {
		alloc := c.LIR.Source.Arrays[name].Alloc
		pos := 0
		for d, i := range idx {
			pos = pos*alloc.Extent(d) + i - alloc.Lo[d]
		}
		return st.arrays[name][pos]
	}
	bad := 0
	same := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) && bad < 10 {
			bad++
			t.Errorf("%s: %s = %v (%#016x), want %v (%#016x)", engine, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	fold := func(f func(a, b float64) float64, id float64, xs ...float64) float64 {
		acc := id
		for _, x := range xs {
			acc = f(acc, x)
		}
		return acc
	}
	for i, v := range s {
		same(fmt.Sprintf("V[1,%d]", i+1), at("V", 1, i+1), v)
		same(fmt.Sprintf("abs(s%d)", i+1), at("AB", 1, i+1), math.Abs(v))
		same(fmt.Sprintf("sign(s%d)", i+1), at("SG", 1, i+1), sign(v))
		for k, u := range s {
			cell := fmt.Sprintf("s%d, s%d", i+1, k+1)
			same("max("+cell+") vector-uniform", at("XU", k+1, i+1), math.Max(v, u))
			same("max("+cell+") uniform-vector", at("UX", k+1, i+1), math.Max(u, v))
			same("min("+cell+") vector-uniform", at("NU", k+1, i+1), math.Min(v, u))
			same("min("+cell+") uniform-vector", at("UN", k+1, i+1), math.Min(u, v))
		}
	}
	for j, a := range s {
		for i, b := range s {
			k := len(s)*j + i + 1
			cell := fmt.Sprintf("s%d, s%d", j+1, i+1)
			same("P pair "+cell, at("P", 1, k), a)
			same("P pair "+cell, at("P", 2, k), b)
			same("max("+cell+")", at("MX", 1, k), math.Max(a, b))
			same("min("+cell+")", at("MN", 1, k), math.Min(a, b))
			mx, mn := fold(math.Max, math.Inf(-1), a, b), fold(math.Min, math.Inf(1), a, b)
			same("partial max<< "+cell, at("PMX", 1, k), mx)
			same("partial min<< "+cell, at("PMN", 1, k), mn)
			same("max<< "+cell, st.scalars[fmt.Sprintf("mx%d", k)], mx)
			same("min<< "+cell, st.scalars[fmt.Sprintf("mn%d", k)], mn)
		}
	}
}

func compileSpecials(t *testing.T, opt driver.Options) *driver.Compilation {
	t.Helper()
	c, err := driver.Compile(specialSrc(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range c.LIR.Source.Arrays {
		if a.Contracted {
			t.Fatalf("%s was contracted: nothing to observe", name)
		}
	}
	return c
}

func TestSpecialValues(t *testing.T) {
	s := specials()
	for i := range s {
		for j := range s[:i] {
			if math.Float64bits(s[i]) == math.Float64bits(s[j]) {
				t.Fatalf("specials %d and %d have one bit pattern", j+1, i+1)
			}
		}
	}
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		c := compileSpecials(t, driver.Options{Level: lvl})
		for _, w := range widths {
			m, err := vm.NewWidth(c.LIR, vm.Options{Bounds: c.Bounds}, nil, w)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			st := state{arrays: map[string][]float64{}, scalars: m.Scalars()}
			for name := range c.LIR.Source.Arrays {
				st.arrays[name] = m.ArrayData(name)
			}
			checkSpecials(t, fmt.Sprintf("vm %s width %d", lvl, w), c, st)
		}

		co := comm.DefaultOptions(2)
		dc := compileSpecials(t, driver.Options{Level: lvl, Comm: &co})
		dm, err := distvm.Run(dc.LIR, distvm.Options{Procs: 2})
		if err != nil {
			t.Fatal(err)
		}
		st := state{arrays: map[string][]float64{}, scalars: map[string]float64{}}
		for name := range dc.LIR.Source.Arrays {
			st.arrays[name] = dm.Gather(name)
		}
		for name := range dc.LIR.Source.Scalars {
			st.scalars[name], _ = dm.Scalar(name)
		}
		checkSpecials(t, fmt.Sprintf("distvm %s p=2", lvl), dc, st)
	}

	if !backend.Available() {
		t.Log("no go toolchain: the native column is skipped")
		return
	}
	c := compileSpecials(t, driver.Options{Level: core.C2F4})
	checkSpecials(t, "native c2+f4", c, runNative(t, c))
}

// runNative builds c as a resident worker, runs it once and returns the
// state it leaves in its mapping.
func runNative(t *testing.T, c *driver.Compilation) state {
	t.Helper()
	src, err := gogen.EmitWorker(c.LIR, c.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	store, err := backend.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	art, err := store.Build(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	// The slabs follow the header and the scalars, one after another.
	spec := gogen.StateOf(c.LIR)
	slabs, words := []int{}, spec.Base()
	for _, name := range spec.Arrays {
		slabs = append(slabs, words)
		words += c.LIR.Source.Arrays[name].Alloc.Size()
	}
	w, err := art.Start(context.Background(), words)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for k, at := range slabs {
		w.Point(k, at)
	}
	if err := w.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	data := w.State()
	st := state{arrays: map[string][]float64{}, scalars: map[string]float64{}}
	for k, name := range spec.Arrays {
		n := c.LIR.Source.Arrays[name].Alloc.Size()
		st.arrays[name] = append([]float64(nil), data[slabs[k]:slabs[k]+n]...)
	}
	for i, name := range spec.Scalars {
		st.scalars[name] = data[spec.Scalar(i)]
	}
	return st
}
