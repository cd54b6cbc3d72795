package vm

import "math"

// The strip kernels of + − × ÷, max, min, sqrt, negation and abs, and
// the max and min folds: the operators every benchmark's time goes to.
// The Go loops below are the reference and the fallback; on amd64 a
// host with AVX runs packed kernels instead (strip_amd64.s), which
// agree with them bit for bit (DESIGN.md §32).

// strips is one set of those kernels.
type strips struct {
	add, sub, mul, div, max, min kernels
	sqrt, neg, abs               func(d, x []float64)
	// maxFold and minFold return acc folded with every element of x.
	maxFold, minFold func(acc float64, x []float64) float64
}

// goStrips are the Go loops. Like packedStrips they are package-level
// values: binOp hands out pointers into them and builds nothing per
// call.
var goStrips = strips{
	add:     kernels{vv: addVV, vu: addVU, uv: addUV},
	sub:     kernels{vv: subVV, vu: subVU, uv: subUV},
	mul:     kernels{vv: mulVV, vu: mulVU, uv: mulUV},
	div:     kernels{vv: divVV, vu: divVU, uv: divUV},
	max:     kernels{vv: maxVV, vu: maxVU, uv: maxUV},
	min:     kernels{vv: minVV, vu: minVU, uv: minUV},
	sqrt:    sqrtV,
	neg:     negV,
	abs:     absV,
	maxFold: maxFold,
	minFold: minFold,
}

// active is the kernel set of the machines built from now on: the
// packed one where the host runs it. binOp, compileInto's builtins and
// fold read it as they compile an operator; only export_test.go
// changes it.
var active = pick(packed)

// pick returns the packed set when on, else the Go loops.
func pick(on bool) *strips {
	if on {
		return &packedStrips
	}
	return &goStrips
}

func addVV(d, x, y []float64) {
	y = y[:len(d)]
	for i, v := range x[:len(d)] {
		d[i] = v + y[i]
	}
}

func addVU(d, x []float64, y float64) {
	for i, v := range x[:len(d)] {
		d[i] = v + y
	}
}

func addUV(d []float64, x float64, y []float64) {
	for i, v := range y[:len(d)] {
		d[i] = x + v
	}
}

func subVV(d, x, y []float64) {
	y = y[:len(d)]
	for i, v := range x[:len(d)] {
		d[i] = v - y[i]
	}
}

func subVU(d, x []float64, y float64) {
	for i, v := range x[:len(d)] {
		d[i] = v - y
	}
}

func subUV(d []float64, x float64, y []float64) {
	for i, v := range y[:len(d)] {
		d[i] = x - v
	}
}

func mulVV(d, x, y []float64) {
	y = y[:len(d)]
	for i, v := range x[:len(d)] {
		d[i] = v * y[i]
	}
}

func mulVU(d, x []float64, y float64) {
	for i, v := range x[:len(d)] {
		d[i] = v * y
	}
}

func mulUV(d []float64, x float64, y []float64) {
	for i, v := range y[:len(d)] {
		d[i] = x * v
	}
}

func divVV(d, x, y []float64) {
	y = y[:len(d)]
	for i, v := range x[:len(d)] {
		d[i] = v / y[i]
	}
}

func divVU(d, x []float64, y float64) {
	for i, v := range x[:len(d)] {
		d[i] = v / y
	}
}

func divUV(d []float64, x float64, y []float64) {
	for i, v := range y[:len(d)] {
		d[i] = x / v
	}
}

func sqrtV(d, x []float64) {
	for i, v := range x[:len(d)] {
		d[i] = math.Sqrt(v)
	}
}

func negV(d, x []float64) {
	for i, v := range x[:len(d)] {
		d[i] = -v
	}
}

func absV(d, x []float64) {
	for i, v := range x[:len(d)] {
		d[i] = math.Abs(v)
	}
}

// math.Max and math.Min are symmetric in their operands, bits included,
// so uniform∘vector is vector∘uniform.

func maxVV(d, x, y []float64) {
	y = y[:len(d)]
	for i, v := range x[:len(d)] {
		d[i] = fmax(v, y[i])
	}
}

func maxVU(d, x []float64, y float64) {
	for i, v := range x[:len(d)] {
		d[i] = fmax(v, y)
	}
}

func maxUV(d []float64, x float64, y []float64) { maxVU(d, y, x) }

func minVV(d, x, y []float64) {
	y = y[:len(d)]
	for i, v := range x[:len(d)] {
		d[i] = fmin(v, y[i])
	}
}

func minVU(d, x []float64, y float64) {
	for i, v := range x[:len(d)] {
		d[i] = fmin(v, y)
	}
}

func minUV(d []float64, x float64, y []float64) { minVU(d, y, x) }

// maxFold and minFold fold x into acc element by element in loop
// order, spelling out fmax and fmin (which inline, but then show in a
// profile as a frame of their own).

func maxFold(acc float64, x []float64) float64 {
	for _, v := range x {
		if v > acc {
			acc = v
		} else if !(v <= acc && acc != 0) {
			acc = maxSlow(acc, v)
		}
	}
	return acc
}

func minFold(acc float64, x []float64) float64 {
	for _, v := range x {
		if v < acc {
			acc = v
		} else if !(v >= acc && acc != 0) {
			acc = minSlow(acc, v)
		}
	}
	return acc
}
