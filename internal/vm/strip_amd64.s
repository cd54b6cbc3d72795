#include "textflag.h"

// Packed strip kernels (DESIGN.md §32). Each runs eight elements per
// iteration in two YMM registers, then the remaining len(d) mod 8 one at
// a time with the scalar form of the same instruction, and clears the
// upper YMM halves before returning to SSE code. Operands are read
// before d is written at every index, so d may be x or y.
//
// Registers: DI = d, SI = x, DX = y (the vector operands), CX = len(d),
// AX = index, BX = len(d) rounded down to a multiple of 8, Y2 = the
// uniform operand broadcast (or the sign mask).

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
