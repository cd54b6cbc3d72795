package kernel

// hasPacked is whether this host runs the packed kernels.
var hasPacked = hasAVX()

// packedSets are the packed kernels, by entry. They run four lanes per
// instruction, eight elements per iteration, and finish with a scalar
// tail. Every arithmetic instruction is the packed form of the one the
// Go loop compiles to, so each lane rounds alike. NaN payloads follow
// the first source operand, as in the Go loops: the vector comes first
// in the commutative uniform∘vector shapes (the Go compiler puts it
// there for x + v and x * v), so add and mul reuse their
// vector∘uniform kernel for it. max and min repair each lane of VMAXPD
// and VMINPD to math.Max's and math.Min's rule (strip_amd64.s). A sum
// or a product folds in loop order, so it keeps its Go fold.
var packedSets = map[string]Kernels{
	"+":    {VV: addVVPacked, VU: addVUPacked, UV: addUVPacked, Fold: sumFold},
	"-":    {V: negPacked, VV: subVVPacked, VU: subVUPacked, UV: subUVPacked},
	"*":    {VV: mulVVPacked, VU: mulVUPacked, UV: mulUVPacked, Fold: prodFold},
	"/":    {VV: divVVPacked, VU: divVUPacked, UV: divUVPacked},
	"max":  {VV: maxVVPacked, VU: maxVUPacked, UV: maxUVPacked, Fold: maxFoldPacked},
	"min":  {VV: minVVPacked, VU: minVUPacked, UV: minUVPacked, Fold: minFoldPacked},
	"sqrt": {V: sqrtPacked},
	"abs":  {V: absPacked},
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
func absPacked(d, x []float64)                        { vabs(d, x[:len(d)]) }

// math.Max and math.Min are symmetric in their operands, bits
// included, so uniform∘vector is vector∘uniform.

func maxVVPacked(d, x, y []float64)                   { vmaxVV(d, x[:len(d)], y[:len(d)]) }
func maxVUPacked(d, x []float64, y float64)           { vmaxVU(d, x[:len(d)], y) }
func maxUVPacked(d []float64, x float64, y []float64) { vmaxVU(d, y[:len(d)], x) }
func minVVPacked(d, x, y []float64)                   { vminVV(d, x[:len(d)], y[:len(d)]) }
func minVUPacked(d, x []float64, y float64)           { vminVU(d, x[:len(d)], y) }
func minUVPacked(d []float64, x float64, y []float64) { vminVU(d, y[:len(d)], x) }

// The max and min folds take the lanes of x's max (min) from assembly
// and combine them into acc with fmax (fmin): four lanes, each the max
// of a subset of x, in place of len(x) dependent steps. The order does
// not matter, bits included (DESIGN.md §32). Fewer than four elements
// go through the Go loop.

func maxFoldPacked(acc float64, x []float64) float64 {
	if len(x) < 4 {
		return maxFold(acc, x)
	}
	var l [4]float64
	vmaxFold(&l, x)
	for _, v := range l {
		acc = fmax(acc, v)
	}
	return acc
}

func minFoldPacked(acc float64, x []float64) float64 {
	if len(x) < 4 {
		return minFold(acc, x)
	}
	var l [4]float64
	vminFold(&l, x)
	for _, v := range l {
		acc = fmin(acc, v)
	}
	return acc
}

// hasAVX reports CPUID's AVX and OSXSAVE bits and XCR0's XMM and YMM
// state bits: the CPU has AVX and the OS saves the YMM registers.
func hasAVX() bool

// The kernels: d[i] = x[i] op y[i], x[i] op y, x op y[i], sqrt(x[i]),
// −x[i], |x[i]| for i < len(d). Each operand holds at least len(d)
// elements. The folds write four lanes whose max (min) is x's.

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

//go:noescape
func vmaxVV(d, x, y []float64)

//go:noescape
func vmaxVU(d, x []float64, y float64)

//go:noescape
func vminVV(d, x, y []float64)

//go:noescape
func vminVU(d, x []float64, y float64)

//go:noescape
func vabs(d, x []float64)

//go:noescape
func vmaxFold(l *[4]float64, x []float64)

//go:noescape
func vminFold(l *[4]float64, x []float64)
