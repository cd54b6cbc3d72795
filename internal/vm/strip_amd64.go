package vm

// packed is whether this host runs the packed kernels.
var packed = hasAVX()

// packedStrips run four lanes per instruction, eight elements per
// iteration, and finish with a scalar tail. Every instruction is the
// packed form of the one the Go loop compiles to, so each lane rounds
// alike. NaN payloads follow the first source operand, as in the Go
// loops: the vector comes first in the commutative uniform∘vector
// shapes (the Go compiler puts it there for x + v and x * v), so add
// and mul reuse their vector∘uniform kernel for it.
var packedStrips = strips{
	add:  kernels{vv: addVVPacked, vu: addVUPacked, uv: addUVPacked},
	sub:  kernels{vv: subVVPacked, vu: subVUPacked, uv: subUVPacked},
	mul:  kernels{vv: mulVVPacked, vu: mulVUPacked, uv: mulUVPacked},
	div:  kernels{vv: divVVPacked, vu: divVUPacked, uv: divUVPacked},
	sqrt: sqrtPacked,
	neg:  negPacked,
}

// The wrappers cut the operands to len(d), which is the only length the
// assembly reads, so a short operand panics here as it does in the Go
// loops.

func addVVPacked(d, x, y []float64)                   { vaddVV(d, x[:len(d)], y[:len(d)]) }
func addVUPacked(d, x []float64, y float64)           { vaddVU(d, x[:len(d)], y) }
func addUVPacked(d []float64, x float64, y []float64) { vaddVU(d, y[:len(d)], x) }
func subVVPacked(d, x, y []float64)                   { vsubVV(d, x[:len(d)], y[:len(d)]) }
func subVUPacked(d, x []float64, y float64)           { vsubVU(d, x[:len(d)], y) }
func subUVPacked(d []float64, x float64, y []float64) { vsubUV(d, x, y[:len(d)]) }
func mulVVPacked(d, x, y []float64)                   { vmulVV(d, x[:len(d)], y[:len(d)]) }
func mulVUPacked(d, x []float64, y float64)           { vmulVU(d, x[:len(d)], y) }
func mulUVPacked(d []float64, x float64, y []float64) { vmulVU(d, y[:len(d)], x) }
func divVVPacked(d, x, y []float64)                   { vdivVV(d, x[:len(d)], y[:len(d)]) }
func divVUPacked(d, x []float64, y float64)           { vdivVU(d, x[:len(d)], y) }
func divUVPacked(d []float64, x float64, y []float64) { vdivUV(d, x, y[:len(d)]) }
func sqrtPacked(d, x []float64)                       { vsqrt(d, x[:len(d)]) }
func negPacked(d, x []float64)                        { vneg(d, x[:len(d)]) }

// hasAVX reports CPUID's AVX and OSXSAVE bits and XCR0's XMM and YMM
// state bits: the CPU has AVX and the OS saves the YMM registers.
func hasAVX() bool

// The kernels: d[i] = x[i] op y[i], x[i] op y, x op y[i], sqrt(x[i]),
// −x[i] for i < len(d). Each operand holds at least len(d) elements.

//go:noescape
func vaddVV(d, x, y []float64)

//go:noescape
func vaddVU(d, x []float64, y float64)

//go:noescape
func vsubVV(d, x, y []float64)

//go:noescape
func vsubVU(d, x []float64, y float64)

//go:noescape
func vsubUV(d []float64, x float64, y []float64)

//go:noescape
func vmulVV(d, x, y []float64)

//go:noescape
func vmulVU(d, x []float64, y float64)

//go:noescape
func vdivVV(d, x, y []float64)

//go:noescape
func vdivVU(d, x []float64, y float64)

//go:noescape
func vdivUV(d []float64, x float64, y []float64)

//go:noescape
func vsqrt(d, x []float64)

//go:noescape
func vneg(d, x []float64)
