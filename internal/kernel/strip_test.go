package kernel

// The packed strip kernels against the Go loops they replace: every
// entry's kernel in every operand shape must write the bits its Go loop
// writes, NaN payloads included, at lengths around the 8-element block
// and the production strip, with the destination disjoint from its
// operands or aliasing either one, and must write nothing past len(d).
// Every packed fold must return the bits of a left fold of its entry's
// scalar rule, and max's and min's rule is math.Max's and math.Min's.
// The tests walk the table, so a packed kernel added to it is tested
// here with no new line.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
)

// sorted is the table in name order.
func sorted() []*Entry {
	var es []*Entry
	for _, e := range table {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
	return es
}

// stripValues are the operands: ±0, ±Inf, three NaNs (a quiet one, the
// sign-set default NaN an invalid operation makes, a signalling one),
// ±subnormal, the largest magnitudes and ordinary values. There are 13,
// so the 169 ordered pairs are the cells a two-operand kernel must get
// right.
var stripValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_0000_0001),
	math.Float64frombits(0xfff8_0000_0000_0000),
	math.Float64frombits(0x7ff4_0000_0000_beef),
	5e-324, -2.5e-310, 1e308, -1.5, 3, 0.1,
}

// stripLengths straddle the 8-element block and the 128-element strip.
var stripLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 127, 128, 129}

const (
	guardLen  = 8                     // elements past len(d) that must stay untouched
	guardBits = 0x7ff8_dead_beef_0000 // their bits
)

// operand returns n values starting at stripValues[shift], so that over
// all shifts every value sits at every residue of the block.
func operand(n, shift int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = stripValues[(i+shift)%len(stripValues)]
	}
	return v
}

// dest returns a destination of length n followed by guardLen guard
// elements; from, when not nil, is copied into it (the aliased operand).
func dest(n int, from []float64) []float64 {
	d := make([]float64, n+guardLen)
	for i := range d {
		d[i] = math.Float64frombits(guardBits)
	}
	copy(d, from)
	return d[:n]
}

// sameBits compares what a Go loop and a packed kernel wrote, guard
// elements included.
func sameBits(t *testing.T, what string, want, got []float64, operands ...[]float64) {
	t.Helper()
	want, got = want[:len(want)+guardLen], got[:len(got)+guardLen]
	for i := range want {
		if a, b := math.Float64bits(want[i]), math.Float64bits(got[i]); a != b {
			var ops string
			for _, o := range operands {
				if i < len(o) {
					ops += fmt.Sprintf(" %#016x", math.Float64bits(o[i]))
				}
			}
			t.Errorf("%s: element %d: Go loop %#016x, packed %#016x (operands%s)", what, i, a, b, ops)
			return
		}
	}
}

func TestPackedKernelsBitIdentical(t *testing.T) {
	if !hasPacked {
		t.Skip("this host runs the Go loops only")
	}
	shifts := len(stripValues)
	for _, e := range sorted() {
		loop, packed := &e.Go, &e.Packed
		if (loop.V == nil) != (packed.V == nil) || (loop.VV == nil) != (packed.VV == nil) || (loop.VU == nil) != (packed.VU == nil) ||
			(loop.UV == nil) != (packed.UV == nil) || (loop.Fold == nil) != (packed.Fold == nil) {
			t.Errorf("%s: the packed set has other shapes than the Go loops", e.Name)
			continue
		}
		for _, n := range stripLengths {
			if loop.VV == nil {
				break
			}
			for s := 0; s < shifts; s++ {
				x := operand(n, 0)
				y := operand(n, s)
				// vector∘vector: the pair (x[i], y[i]) over all shifts
				// is every ordered pair.
				for _, alias := range []string{"disjoint", "d=x", "d=y"} {
					var from []float64
					switch alias {
					case "d=x":
						from = x
					case "d=y":
						from = y
					}
					want, got := dest(n, from), dest(n, from)
					wx, wy, gx, gy := x, y, x, y
					switch alias {
					case "d=x":
						wx, gx = want, got
					case "d=y":
						wy, gy = want, got
					}
					loop.VV(want, wx, wy)
					packed.VV(got, gx, gy)
					sameBits(t, fmt.Sprintf("%s vv n=%d shift=%d %s", e.Name, n, s, alias), want, got, x, y)
				}
				// vector∘uniform and uniform∘vector: the uniform is each
				// value in turn, the vector every value.
				u := stripValues[s]
				for _, alias := range []string{"disjoint", "d=vector"} {
					var from []float64
					if alias == "d=vector" {
						from = y
					}
					want, got := dest(n, from), dest(n, from)
					wy, gy := y, y
					if from != nil {
						wy, gy = want, got
					}
					loop.VU(want, wy, u)
					packed.VU(got, gy, u)
					sameBits(t, fmt.Sprintf("%s vu n=%d uniform=%#x %s", e.Name, n, math.Float64bits(u), alias), want, got, y)

					want, got = dest(n, from), dest(n, from)
					wy, gy = y, y
					if from != nil {
						wy, gy = want, got
					}
					loop.UV(want, u, wy)
					packed.UV(got, u, gy)
					sameBits(t, fmt.Sprintf("%s uv n=%d uniform=%#x %s", e.Name, n, math.Float64bits(u), alias), want, got, y)
				}
			}
		}
		for _, n := range stripLengths {
			if loop.V == nil {
				break
			}
			for s := 0; s < shifts; s++ {
				x := operand(n, s)
				want, got := dest(n, nil), dest(n, nil)
				loop.V(want, x)
				packed.V(got, x)
				sameBits(t, fmt.Sprintf("%s n=%d shift=%d disjoint", e.Name, n, s), want, got, x)
				want, got = dest(n, x), dest(n, x)
				loop.V(want, want)
				packed.V(got, got)
				sameBits(t, fmt.Sprintf("%s n=%d shift=%d d=x", e.Name, n, s), want, got, x)
			}
		}
	}
}

func TestPackedFoldsBitIdentical(t *testing.T) {
	if !hasPacked {
		t.Skip("this host runs the Go loops only")
	}
	for _, e := range sorted() {
		// A sum and a product keep their Go loop as their packed fold:
		// their bits are their order, and a left fold of the scalar rule
		// need not even match the loop's NaN payloads (the compiler may
		// swap the operands of x * y).
		if e.Packed.Fold == nil || reflect.ValueOf(e.Packed.Fold).Pointer() == reflect.ValueOf(e.Go.Fold).Pointer() {
			continue
		}
		// The slot starts at each special value, the identity among them.
		starts := stripValues
		check := func(acc float64, x []float64, what string) {
			t.Helper()
			want := acc
			for _, v := range x {
				want = e.F2(want, v)
			}
			if a, b := math.Float64bits(want), math.Float64bits(e.Packed.Fold(acc, x)); a != b {
				t.Errorf("%s fold %s slot=%#016x: left fold %#016x, packed %#016x", e.Name, what, math.Float64bits(acc), a, b)
			}
		}
		for _, n := range stripLengths {
			for s := 0; s < len(stripValues); s++ {
				x := operand(n, s)
				for _, acc := range starts {
					check(acc, x, fmt.Sprintf("n=%d shift=%d", n, s))
				}
			}
		}
		// Two values at every ordered pair of positions of a strip that
		// takes every path of the kernel (the 16-element loop, a
		// 4-element step and the overlapping last four), over values
		// that lose to both: a NaN and the winning infinity, so the NaN
		// comes before the infinity and after it; a NaN without one;
		// and the two zeros, each before the other.
		win, lose := math.Inf(1), -2.0
		if e.F2(win, 0) != win { // min
			win, lose = math.Inf(-1), 2.0
		}
		pairs := [][2]float64{{0, math.Copysign(0, -1)}}
		for _, nan := range stripValues[4:7] {
			pairs = append(pairs, [2]float64{nan, win}, [2]float64{nan, nan})
		}
		for _, p := range pairs {
			for i := 0; i < 23; i++ {
				for j := 0; j < 23; j++ {
					if i == j {
						continue
					}
					x := make([]float64, 23)
					for k := range x {
						x[k] = lose * float64(1+k%5)
					}
					x[i], x[j] = p[0], p[1]
					for _, acc := range starts {
						check(acc, x, fmt.Sprintf("%#x at %d, %#x at %d", math.Float64bits(p[0]), i, math.Float64bits(p[1]), j))
					}
				}
			}
		}
	}
}

// TestMaxMinRule holds max's and min's scalar rule, which every fold
// and kernel of theirs is checked against, to math.Max and math.Min
// over every ordered pair of special values.
func TestMaxMinRule(t *testing.T) {
	for _, c := range []struct {
		name string
		want func(x, y float64) float64
	}{{"max", math.Max}, {"min", math.Min}} {
		f := Lookup(c.name, 2).F2
		for _, x := range stripValues {
			for _, y := range stripValues {
				if a, b := math.Float64bits(c.want(x, y)), math.Float64bits(f(x, y)); a != b {
					t.Errorf("%s(%#016x, %#016x): math %#016x, rule %#016x", c.name, math.Float64bits(x), math.Float64bits(y), a, b)
				}
			}
		}
	}
}
