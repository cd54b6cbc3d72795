// Package kernel is the one definition of every ZA operator and
// builtin: its scalar rule and its strip kernels, the loops an engine
// runs over a strip of elements (DESIGN.md §32). The Go loops
// (strip.go) are the reference and the fallback. On an amd64 host with
// AVX, + − × ÷, max, min, negation, abs and sqrt and the max and min
// folds also run as packed kernels (strip_amd64.s), four lanes per
// instruction and bit for bit the Go loops. Whether a host runs them is
// decided once, from the CPU probe (HasPacked).
//
// The package imports the standard library only, so that a program
// that imports it can be built from its source alone (Source), without
// the rest of this module: emitted native programs do. An engine therefore names an operator by its ZA spelling
// (Lookup), not by a type of its own IR.
package kernel

import "math"

// Kernels are one operator's strip kernels. Each writes d[i] for every
// i < len(d): V writes op x[i], VV x[i] op y[i], VU x[i] op y and UV
// x op y[i]. Every operand holds at least len(d) elements, and d may
// be one of them. Fold, for the operator of a reduction, returns acc
// folded with every element of x. A shape the operator lacks is nil.
type Kernels struct {
	V    func(d, x []float64)
	VV   func(d, x, y []float64)
	VU   func(d, x []float64, y float64)
	UV   func(d []float64, x float64, y []float64)
	Fold func(acc float64, x []float64) float64
}

// Entry is one operator or builtin. Entries are shared by every caller
// of Lookup: read them, never write them.
type Entry struct {
	Name string
	// F1 and F2 are the scalar rules of the one- and two-operand forms,
	// nil for a form the operator lacks ("-" has both).
	F1 func(x float64) float64
	F2 func(x, y float64) float64
	// Decided, for & and |, reports that x alone fixes the result at
	// every element: VU(d, x, 0) then writes it, and y need not be
	// evaluated (at width 1, a short circuit).
	Decided func(x []float64) bool
	// Go are the Go loops. Packed are the packed kernels where this host
	// runs them and the Go loops elsewhere.
	Go, Packed Kernels
	// Packs reports that Packed holds packed kernels on this host. Call
	// reports that the scalar rule compiles to a call at GOAMD64=v1
	// (libm, pow, mod, atan2, floor and ceil), so a loop that applies it
	// element by element saves and restores its live float registers
	// around every element: Go's internal ABI has no callee-saved ones.
	Packs, Call bool
}

// Lookup returns the entry of the operator or builtin spelled name in
// its form with the given number of operands, or nil.
func Lookup(name string, operands int) *Entry {
	if e := table[name]; e != nil && (operands == 1 && e.F1 != nil || operands == 2 && e.F2 != nil) {
		return e
	}
	return nil
}

// HasPacked reports whether this host runs the packed kernels.
func HasPacked() bool { return hasPacked }

// Width is the number of elements of a strip: the VM's, and the one
// native code strip-mines its innermost loops at (DESIGN.md §22).
const Width = 128

// table holds every entry by name. An entry's kernels that the list
// leaves nil are loops calling its scalar rule per element.
var table = entries(
	op("+", nil, func(x, y float64) float64 { return x + y },
		Kernels{VV: addVV, VU: addVU, UV: addUV, Fold: sumFold}),
	op("-", func(x float64) float64 { return -x }, func(x, y float64) float64 { return x - y },
		Kernels{V: negV, VV: subVV, VU: subVU, UV: subUV}),
	op("*", nil, func(x, y float64) float64 { return x * y },
		Kernels{VV: mulVV, VU: mulVU, UV: mulUV, Fold: prodFold}),
	op("/", nil, func(x, y float64) float64 { return x / y },
		Kernels{VV: divVV, VU: divVU, UV: divUV}),
	calls(op("%", nil, math.Mod, Kernels{})),
	calls(op("^", nil, math.Pow, Kernels{})),
	op("=", nil, func(x, y float64) float64 { return b2f(x == y) }, Kernels{}),
	op("!=", nil, func(x, y float64) float64 { return b2f(x != y) }, Kernels{}),
	op("<", nil, func(x, y float64) float64 { return b2f(x < y) }, Kernels{}),
	op("<=", nil, func(x, y float64) float64 { return b2f(x <= y) }, Kernels{}),
	op(">", nil, func(x, y float64) float64 { return b2f(x > y) }, Kernels{}),
	op(">=", nil, func(x, y float64) float64 { return b2f(x >= y) }, Kernels{}),
	decides(op("&", nil, func(x, y float64) float64 { return b2f(x != 0 && y != 0) }, Kernels{}), false),
	decides(op("|", nil, func(x, y float64) float64 { return b2f(x != 0 || y != 0) }, Kernels{}), true),
	op("!", func(x float64) float64 { return b2f(x == 0) }, nil, Kernels{}),
	op("max", nil, fmax, Kernels{VV: maxVV, VU: maxVU, UV: maxUV, Fold: maxFold}),
	op("min", nil, fmin, Kernels{VV: minVV, VU: minVU, UV: minUV, Fold: minFold}),
	op("sqrt", math.Sqrt, nil, Kernels{V: sqrtV}),
	op("abs", math.Abs, nil, Kernels{V: absV}),
	calls(op("floor", math.Floor, nil, Kernels{V: floorV})),
	calls(op("ceil", math.Ceil, nil, Kernels{V: ceilV})),
	op("sign", sign, nil, Kernels{V: signV}),
	calls(op("exp", math.Exp, nil, Kernels{})),
	calls(op("log", math.Log, nil, Kernels{})),
	calls(op("sin", math.Sin, nil, Kernels{})),
	calls(op("cos", math.Cos, nil, Kernels{})),
	calls(op("tan", math.Tan, nil, Kernels{})),
	calls(op("pow", nil, math.Pow, Kernels{})),
	calls(op("mod", nil, math.Mod, Kernels{})),
	calls(op("atan2", nil, math.Atan2, Kernels{})),
)

func entries(list ...*Entry) map[string]*Entry {
	t := make(map[string]*Entry, len(list))
	for _, e := range list {
		t[e.Name] = e
	}
	return t
}

// op makes an entry, filling each kernel its forms need and k lacks
// with a loop over the scalar rule, and taking packedSets' kernels
// where the host runs them.
func op(name string, f1 func(float64) float64, f2 func(x, y float64) float64, k Kernels) *Entry {
	if f1 != nil && k.V == nil {
		k.V = func(d, x []float64) {
			for i, v := range x[:len(d)] {
				d[i] = f1(v)
			}
		}
	}
	if f2 != nil && k.VV == nil {
		k.VV = func(d, x, y []float64) {
			y = y[:len(d)]
			for i, v := range x[:len(d)] {
				d[i] = f2(v, y[i])
			}
		}
		k.VU = func(d, x []float64, y float64) {
			for i, v := range x[:len(d)] {
				d[i] = f2(v, y)
			}
		}
		k.UV = func(d []float64, x float64, y []float64) {
			for i, v := range y[:len(d)] {
				d[i] = f2(x, v)
			}
		}
	}
	p, ok := packedSets[name]
	e := &Entry{Name: name, F1: f1, F2: f2, Go: k, Packed: k, Packs: ok && hasPacked}
	if e.Packs {
		e.Packed = p
	}
	return e
}

// calls marks an entry whose scalar rule is a call (Entry.Call).
func calls(e *Entry) *Entry {
	e.Call = true
	return e
}

// decides gives & (t false) and | (t true) their Decided test: every
// element of x has truth value t (a value is true when it is not 0).
func decides(e *Entry, t bool) *Entry {
	e.Decided = func(x []float64) bool {
		for _, v := range x {
			if (v != 0) != t {
				return false
			}
		}
		return true
	}
	return e
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
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

// fmax is math.Max(acc, x) bit for bit, and inlines (cost 78 of the
// inliner's 80). x > acc takes x. x <= acc keeps acc when acc is not
// zero: a tie away from zero has one bit pattern. Anything else — a NaN,
// or acc = ±0 with x not above it — goes to maxSlow, out of line, which
// is math.Max and on amd64 a call to assembly. (Keeping acc for every
// x < acc as well costs 82, and then fmax no longer inlines.) It is the
// scalar rule of max and max<<; the Go fold loop spells it out, and
// gogen's za_max is the same rule.
func fmax(acc, x float64) float64 {
	if x > acc {
		return x
	}
	if x <= acc && acc != 0 {
		return acc
	}
	return maxSlow(acc, x)
}

// fmin is math.Min(acc, x) bit for bit, as fmax is math.Max.
func fmin(acc, x float64) float64 {
	if x < acc {
		return x
	}
	if x >= acc && acc != 0 {
		return acc
	}
	return minSlow(acc, x)
}

//go:noinline
func maxSlow(acc, x float64) float64 { return math.Max(acc, x) }

//go:noinline
func minSlow(acc, x float64) float64 { return math.Min(acc, x) }
