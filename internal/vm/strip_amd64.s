#include "textflag.h"

// Packed strip kernels (DESIGN.md §32). Each runs eight elements per
// iteration in two YMM registers, then the remaining len(d) mod 8 one at
// a time with the scalar form of the same instruction, and clears the
// upper YMM halves before returning to SSE code. Operands are read
// before d is written at every index, so d may be x or y.
//
// Registers: DI = d, SI = x, DX = y (the vector operands), CX = len(d),
// AX = index, BX = len(d) rounded down to a multiple of 8, Y2 = the
// uniform operand broadcast (or the sign mask). The max and min kernels
// and the folds, further down, say which registers they use.

// VV: d[i] = x[i] op y[i].
#define VV(PACKED, SCALAR) \
	XORQ	AX, AX; \
	MOVQ	CX, BX; \
	ANDQ	$-8, BX; \
	JZ	tail; \
loop: \
	VMOVUPD	(SI)(AX*8), Y0; \
	VMOVUPD	32(SI)(AX*8), Y1; \
	PACKED	(DX)(AX*8), Y0, Y0; \
	PACKED	32(DX)(AX*8), Y1, Y1; \
	VMOVUPD	Y0, (DI)(AX*8); \
	VMOVUPD	Y1, 32(DI)(AX*8); \
	ADDQ	$8, AX; \
	CMPQ	AX, BX; \
	JLT	loop; \
tail: \
	CMPQ	AX, CX; \
	JGE	done; \
	VMOVSD	(SI)(AX*8), X0; \
	SCALAR	(DX)(AX*8), X0, X0; \
	VMOVSD	X0, (DI)(AX*8); \
	INCQ	AX; \
	JMP	tail; \
done: \
	VZEROUPPER; \
	RET

// VU: d[i] = x[i] op y, the vector operand first.
#define VU(PACKED, SCALAR) \
	XORQ	AX, AX; \
	MOVQ	CX, BX; \
	ANDQ	$-8, BX; \
	JZ	tail; \
loop: \
	VMOVUPD	(SI)(AX*8), Y0; \
	VMOVUPD	32(SI)(AX*8), Y1; \
	PACKED	Y2, Y0, Y0; \
	PACKED	Y2, Y1, Y1; \
	VMOVUPD	Y0, (DI)(AX*8); \
	VMOVUPD	Y1, 32(DI)(AX*8); \
	ADDQ	$8, AX; \
	CMPQ	AX, BX; \
	JLT	loop; \
tail: \
	CMPQ	AX, CX; \
	JGE	done; \
	VMOVSD	(SI)(AX*8), X0; \
	SCALAR	X2, X0, X0; \
	VMOVSD	X0, (DI)(AX*8); \
	INCQ	AX; \
	JMP	tail; \
done: \
	VZEROUPPER; \
	RET

// UV: d[i] = x op y[i], the uniform operand first.
#define UV(PACKED, SCALAR) \
	XORQ	AX, AX; \
	MOVQ	CX, BX; \
	ANDQ	$-8, BX; \
	JZ	tail; \
loop: \
	PACKED	(DX)(AX*8), Y2, Y0; \
	PACKED	32(DX)(AX*8), Y2, Y1; \
	VMOVUPD	Y0, (DI)(AX*8); \
	VMOVUPD	Y1, 32(DI)(AX*8); \
	ADDQ	$8, AX; \
	CMPQ	AX, BX; \
	JLT	loop; \
tail: \
	CMPQ	AX, CX; \
	JGE	done; \
	SCALAR	(DX)(AX*8), X2, X0; \
	VMOVSD	X0, (DI)(AX*8); \
	INCQ	AX; \
	JMP	tail; \
done: \
	VZEROUPPER; \
	RET

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL	CX, $0x18000000
	JNE	no
	XORL	CX, CX
	XGETBV                  // EDX:EAX = XCR0
	ANDL	$6, AX          // XMM (bit 1) and YMM (bit 2) state
	CMPL	AX, $6
	JNE	no
	MOVB	$1, ret+0(FP)
	RET
no:
	MOVB	$0, ret+0(FP)
	RET

// func vaddVV(d, x, y []float64)
TEXT ·vaddVV(SB), NOSPLIT, $0-72
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	MOVQ	y_base+48(FP), DX
	VV(VADDPD, VADDSD)

// func vsubVV(d, x, y []float64)
TEXT ·vsubVV(SB), NOSPLIT, $0-72
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	MOVQ	y_base+48(FP), DX
	VV(VSUBPD, VSUBSD)

// func vmulVV(d, x, y []float64)
TEXT ·vmulVV(SB), NOSPLIT, $0-72
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	MOVQ	y_base+48(FP), DX
	VV(VMULPD, VMULSD)

// func vdivVV(d, x, y []float64)
TEXT ·vdivVV(SB), NOSPLIT, $0-72
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	MOVQ	y_base+48(FP), DX
	VV(VDIVPD, VDIVSD)

// func vaddVU(d, x []float64, y float64)
TEXT ·vaddVU(SB), NOSPLIT, $0-56
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	VBROADCASTSD	y+48(FP), Y2
	VU(VADDPD, VADDSD)

// func vsubVU(d, x []float64, y float64)
TEXT ·vsubVU(SB), NOSPLIT, $0-56
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	VBROADCASTSD	y+48(FP), Y2
	VU(VSUBPD, VSUBSD)

// func vmulVU(d, x []float64, y float64)
TEXT ·vmulVU(SB), NOSPLIT, $0-56
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	VBROADCASTSD	y+48(FP), Y2
	VU(VMULPD, VMULSD)

// func vdivVU(d, x []float64, y float64)
TEXT ·vdivVU(SB), NOSPLIT, $0-56
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	VBROADCASTSD	y+48(FP), Y2
	VU(VDIVPD, VDIVSD)

// func vsubUV(d []float64, x float64, y []float64)
TEXT ·vsubUV(SB), NOSPLIT, $0-56
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	VBROADCASTSD	x+24(FP), Y2
	MOVQ	y_base+32(FP), DX
	UV(VSUBPD, VSUBSD)

// func vdivUV(d []float64, x float64, y []float64)
TEXT ·vdivUV(SB), NOSPLIT, $0-56
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	VBROADCASTSD	x+24(FP), Y2
	MOVQ	y_base+32(FP), DX
	UV(VDIVPD, VDIVSD)

// func vsqrt(d, x []float64)
TEXT ·vsqrt(SB), NOSPLIT, $0-48
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	XORQ	AX, AX
	MOVQ	CX, BX
	ANDQ	$-8, BX
	JZ	tail
loop:
	VSQRTPD	(SI)(AX*8), Y0
	VSQRTPD	32(SI)(AX*8), Y1
	VMOVUPD	Y0, (DI)(AX*8)
	VMOVUPD	Y1, 32(DI)(AX*8)
	ADDQ	$8, AX
	CMPQ	AX, BX
	JLT	loop
tail:
	CMPQ	AX, CX
	JGE	done
	VSQRTSD	(SI)(AX*8), X0, X0
	VMOVSD	X0, (DI)(AX*8)
	INCQ	AX
	JMP	tail
done:
	VZEROUPPER
	RET

// The sign bit: x XOR it is −x, as the Go compiler negates.
DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8

// func vneg(d, x []float64)
TEXT ·vneg(SB), NOSPLIT, $0-48
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	VBROADCASTSD	signbit<>(SB), Y2
	XORQ	AX, AX
	MOVQ	CX, BX
	ANDQ	$-8, BX
	JZ	tail
loop:
	VXORPD	(SI)(AX*8), Y2, Y0
	VXORPD	32(SI)(AX*8), Y2, Y1
	VMOVUPD	Y0, (DI)(AX*8)
	VMOVUPD	Y1, 32(DI)(AX*8)
	ADDQ	$8, AX
	CMPQ	AX, BX
	JLT	loop
tail:
	CMPQ	AX, CX
	JGE	done
	VMOVSD	(SI)(AX*8), X0
	VXORPD	X2, X0, X0
	VMOVSD	X0, (DI)(AX*8)
	INCQ	AX
	JMP	tail
done:
	VZEROUPPER
	RET

// max and min (DESIGN.md §32). VMAXPD and VMINPD return their second
// source for a NaN or for two zeros, math.Max and math.Min do not, so
// each lane is repaired to their rule: an infinity of the winning sign
// wins, even against a NaN; otherwise a NaN gives the canonical NaN;
// and ±0 against ±0 gives +0 for max, −0 for min.
DATA nan<>+0(SB)/8, $0x7ff8000000000001
GLOBL nan<>(SB), RODATA|NOPTR, $8
DATA posinf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posinf<>(SB), RODATA|NOPTR, $8
DATA neginf<>+0(SB)/8, $0xfff0000000000000
GLOBL neginf<>(SB), RODATA|NOPTR, $8

// PICK: D = math.Max(A, B) lane by lane with OP = VMAXPD, MERGE =
// VANDPD, WIN = +Inf; math.Min with VMINPD, VORPD, −Inf. NAN holds the
// canonical NaN; T and U are scratch. Both operand orders are taken:
// they agree except on a NaN and on two zeros, where AND keeps the
// sign bit only if both are −0 and OR if either is. Then the NaN lanes
// (VCMPPD predicate 3, unordered) take the canonical NaN, and the
// lanes with WIN in either operand (predicate 0, equal) take WIN.
#define PICK(OP, MERGE, NAN, WIN, A, B, D, T, U) \
	OP	B, A, D; \
	OP	A, B, T; \
	MERGE	T, D, D; \
	VCMPPD	$3, B, A, T; \
	VBLENDVPD	T, NAN, D, D; \
	VCMPPD	$0, WIN, A, T; \
	VCMPPD	$0, WIN, B, U; \
	VORPD	U, T, T; \
	VBLENDVPD	T, WIN, D, D

// PICKVV: d[i] = pick(x[i], y[i]), eight elements per iteration, the
// tail with the 128-bit form on one element at a time. Y13 = the
// canonical NaN, Y14 = WIN.
#define PICKVV(OP, MERGE) \
	XORQ	AX, AX; \
	MOVQ	CX, BX; \
	ANDQ	$-8, BX; \
	JZ	tail; \
loop: \
	VMOVUPD	(SI)(AX*8), Y0; \
	VMOVUPD	(DX)(AX*8), Y1; \
	VMOVUPD	32(SI)(AX*8), Y2; \
	VMOVUPD	32(DX)(AX*8), Y3; \
	PICK(OP, MERGE, Y13, Y14, Y0, Y1, Y4, Y6, Y7); \
	PICK(OP, MERGE, Y13, Y14, Y2, Y3, Y5, Y8, Y9); \
	VMOVUPD	Y4, (DI)(AX*8); \
	VMOVUPD	Y5, 32(DI)(AX*8); \
	ADDQ	$8, AX; \
	CMPQ	AX, BX; \
	JLT	loop; \
tail: \
	CMPQ	AX, CX; \
	JGE	done; \
	VMOVSD	(SI)(AX*8), X0; \
	VMOVSD	(DX)(AX*8), X1; \
	PICK(OP, MERGE, X13, X14, X0, X1, X4, X6, X7); \
	VMOVSD	X4, (DI)(AX*8); \
	INCQ	AX; \
	JMP	tail; \
done: \
	VZEROUPPER; \
	RET

// PICKVU: d[i] = pick(x[i], y), y broadcast in Y12.
#define PICKVU(OP, MERGE) \
	XORQ	AX, AX; \
	MOVQ	CX, BX; \
	ANDQ	$-8, BX; \
	JZ	tail; \
loop: \
	VMOVUPD	(SI)(AX*8), Y0; \
	VMOVUPD	32(SI)(AX*8), Y2; \
	PICK(OP, MERGE, Y13, Y14, Y0, Y12, Y4, Y6, Y7); \
	PICK(OP, MERGE, Y13, Y14, Y2, Y12, Y5, Y8, Y9); \
	VMOVUPD	Y4, (DI)(AX*8); \
	VMOVUPD	Y5, 32(DI)(AX*8); \
	ADDQ	$8, AX; \
	CMPQ	AX, BX; \
	JLT	loop; \
tail: \
	CMPQ	AX, CX; \
	JGE	done; \
	VMOVSD	(SI)(AX*8), X0; \
	PICK(OP, MERGE, X13, X14, X0, X12, X4, X6, X7); \
	VMOVSD	X4, (DI)(AX*8); \
	INCQ	AX; \
	JMP	tail; \
done: \
	VZEROUPPER; \
	RET

// func vmaxVV(d, x, y []float64)
TEXT ·vmaxVV(SB), NOSPLIT, $0-72
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	MOVQ	y_base+48(FP), DX
	VBROADCASTSD	nan<>(SB), Y13
	VBROADCASTSD	posinf<>(SB), Y14
	PICKVV(VMAXPD, VANDPD)

// func vminVV(d, x, y []float64)
TEXT ·vminVV(SB), NOSPLIT, $0-72
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	MOVQ	y_base+48(FP), DX
	VBROADCASTSD	nan<>(SB), Y13
	VBROADCASTSD	neginf<>(SB), Y14
	PICKVV(VMINPD, VORPD)

// func vmaxVU(d, x []float64, y float64)
TEXT ·vmaxVU(SB), NOSPLIT, $0-56
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	VBROADCASTSD	y+48(FP), Y12
	VBROADCASTSD	nan<>(SB), Y13
	VBROADCASTSD	posinf<>(SB), Y14
	PICKVU(VMAXPD, VANDPD)

// func vminVU(d, x []float64, y float64)
TEXT ·vminVU(SB), NOSPLIT, $0-56
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	VBROADCASTSD	y+48(FP), Y12
	VBROADCASTSD	nan<>(SB), Y13
	VBROADCASTSD	neginf<>(SB), Y14
	PICKVU(VMINPD, VORPD)

// STEP folds the four elements in X into the lane accumulator A. OP
// with the identity (Y14) as its second source turns a NaN into the
// identity and keeps every other value, so A is only ever the pick of
// ordered values, which both operand orders and MERGE make exact, ±0
// included. T is scratch.
#define STEP(OP, MERGE, X, A, T) \
	OP	Y14, X, X; \
	OP	X, A, T; \
	OP	A, X, A; \
	MERGE	T, A, A

// FOLD: the lanes of the max or min of x[:CX], CX >= 4, into (DI).
// Four accumulators of four lanes (Y0-Y3) take sixteen elements per
// iteration, then four at a time into Y0, then the last four elements
// into Y1 when CX is not a multiple of four: an element folded twice
// changes neither a max nor a min. Y4 and Y5 mark the lanes that saw a
// NaN (VCMPPD predicate 3, unordered, tests two vectors at once). The
// accumulators are merged, and a lane is then the canonical NaN if
// some lane saw one, unless it holds WIN (Y15), which no NaN unseats.
// Which lane saw the NaN does not matter: the caller combines the
// lanes, and a NaN in any of them is the combination's NaN.
#define FOLD(OP, MERGE) \
	VMOVAPD	Y14, Y0; \
	VMOVAPD	Y14, Y1; \
	VMOVAPD	Y14, Y2; \
	VMOVAPD	Y14, Y3; \
	VXORPD	Y4, Y4, Y4; \
	VXORPD	Y5, Y5, Y5; \
	XORQ	AX, AX; \
	MOVQ	CX, BX; \
	ANDQ	$-16, BX; \
	JZ	quads; \
loop: \
	VMOVUPD	(SI)(AX*8), Y8; \
	VMOVUPD	32(SI)(AX*8), Y9; \
	VMOVUPD	64(SI)(AX*8), Y10; \
	VMOVUPD	96(SI)(AX*8), Y11; \
	VCMPPD	$3, Y9, Y8, Y12; \
	VCMPPD	$3, Y11, Y10, Y13; \
	VORPD	Y12, Y4, Y4; \
	VORPD	Y13, Y5, Y5; \
	STEP(OP, MERGE, Y8, Y0, Y6); \
	STEP(OP, MERGE, Y9, Y1, Y7); \
	STEP(OP, MERGE, Y10, Y2, Y6); \
	STEP(OP, MERGE, Y11, Y3, Y7); \
	ADDQ	$16, AX; \
	CMPQ	AX, BX; \
	JLT	loop; \
quads: \
	MOVQ	CX, BX; \
	ANDQ	$-4, BX; \
quad: \
	CMPQ	AX, BX; \
	JGE	last; \
	VMOVUPD	(SI)(AX*8), Y8; \
	VCMPPD	$3, Y8, Y8, Y12; \
	VORPD	Y12, Y4, Y4; \
	STEP(OP, MERGE, Y8, Y0, Y6); \
	ADDQ	$4, AX; \
	JMP	quad; \
last: \
	CMPQ	AX, CX; \
	JGE	merge; \
	VMOVUPD	-32(SI)(CX*8), Y9; \
	VCMPPD	$3, Y9, Y9, Y13; \
	VORPD	Y13, Y5, Y5; \
	STEP(OP, MERGE, Y9, Y1, Y7); \
merge: \
	OP	Y1, Y0, Y6; \
	OP	Y0, Y1, Y0; \
	MERGE	Y6, Y0, Y0; \
	OP	Y3, Y2, Y7; \
	OP	Y2, Y3, Y2; \
	MERGE	Y7, Y2, Y2; \
	OP	Y2, Y0, Y6; \
	OP	Y0, Y2, Y0; \
	MERGE	Y6, Y0, Y0; \
	VORPD	Y5, Y4, Y4; \
	VCMPPD	$0, Y15, Y0, Y12; \
	VBROADCASTSD	nan<>(SB), Y13; \
	VBLENDVPD	Y4, Y13, Y0, Y0; \
	VBLENDVPD	Y12, Y15, Y0, Y0; \
	VMOVUPD	Y0, (DI); \
	VZEROUPPER; \
	RET

// func vmaxFold(l *[4]float64, x []float64)
TEXT ·vmaxFold(SB), NOSPLIT, $0-32
	MOVQ	l+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	x_len+16(FP), CX
	VBROADCASTSD	neginf<>(SB), Y14
	VBROADCASTSD	posinf<>(SB), Y15
	FOLD(VMAXPD, VANDPD)

// func vminFold(l *[4]float64, x []float64)
TEXT ·vminFold(SB), NOSPLIT, $0-32
	MOVQ	l+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	x_len+16(FP), CX
	VBROADCASTSD	posinf<>(SB), Y14
	VBROADCASTSD	neginf<>(SB), Y15
	FOLD(VMINPD, VORPD)

// The magnitude mask: x AND it is math.Abs(x), which clears the sign bit.
DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// func vabs(d, x []float64)
TEXT ·vabs(SB), NOSPLIT, $0-48
	MOVQ	d_base+0(FP), DI
	MOVQ	d_len+8(FP), CX
	MOVQ	x_base+24(FP), SI
	VBROADCASTSD	absmask<>(SB), Y2
	XORQ	AX, AX
	MOVQ	CX, BX
	ANDQ	$-8, BX
	JZ	tail
loop:
	VANDPD	(SI)(AX*8), Y2, Y0
	VANDPD	32(SI)(AX*8), Y2, Y1
	VMOVUPD	Y0, (DI)(AX*8)
	VMOVUPD	Y1, 32(DI)(AX*8)
	ADDQ	$8, AX
	CMPQ	AX, BX
	JLT	loop
tail:
	CMPQ	AX, CX
	JGE	done
	VMOVSD	(SI)(AX*8), X0
	VANDPD	X2, X0, X0
	VMOVSD	X0, (DI)(AX*8)
	INCQ	AX
	JMP	tail
done:
	VZEROUPPER
	RET
