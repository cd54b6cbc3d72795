package kernel

import "math"

// The Go loops of the operators every benchmark's time goes to: + − ×
// ÷, max, min, sqrt, negation, abs, floor, ceil and sign, and the four
// reductions' folds. They are the reference and the fallback; on amd64
// a host with AVX runs packed kernels instead where strip_amd64.go has
// them, which agree with these bit for bit (DESIGN.md §32).

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

// math.Floor and math.Ceil are intrinsics when called directly.

func floorV(d, x []float64) {
	for i, v := range x[:len(d)] {
		d[i] = math.Floor(v)
	}
}

func ceilV(d, x []float64) {
	for i, v := range x[:len(d)] {
		d[i] = math.Ceil(v)
	}
}

func signV(d, x []float64) {
	for i, v := range x[:len(d)] {
		d[i] = sign(v)
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

// The folds fold x into acc element by element in loop order. The bit
// pattern of a sum or a product is its order, so sumFold and prodFold
// have no packed form. maxFold and minFold spell out fmax and fmin
// (which inline, but then show in a profile as a frame of their own).

func sumFold(acc float64, x []float64) float64 {
	for _, v := range x {
		acc += v
	}
	return acc
}

func prodFold(acc float64, x []float64) float64 {
	for _, v := range x {
		acc *= v
	}
	return acc
}

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
